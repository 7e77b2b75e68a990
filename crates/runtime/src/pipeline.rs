//! The tunable pipeline pattern (Section 2.2).
//!
//! Stage-binding implementation: each stage owns one or more threads
//! ("We implement stage binding and use buffers to connect predecessor and
//! successor stages"), with bounded channels as the buffers. The four
//! tuning parameters of rule PLTP are first-class:
//!
//! * **StageReplication** — a stage may run `replication` workers that
//!   consume consecutive stream elements concurrently,
//! * **OrderPreservation** — a reorder buffer behind a replicated stage
//!   restores stream order before the successor sees the elements,
//! * **StageFusion** — adjacent stages can be composed into one thread,
//!   saving the buffer and thread overhead,
//! * **SequentialExecution** — the whole pipeline can run in-place, so a
//!   short stream never pays the threading overhead.
//!
//! A fifth knob amortizes the per-element runtime cost: **BatchSize**.
//! Stages exchange [`Batch`]es — runs of consecutive stream elements —
//! so one channel transaction, one trace event pair and one cancellation
//! check cover `batch` elements instead of one. Output stays identical
//! to the sequential oracle: sequence numbers are per element, the
//! reorder buffer releases whole runs in order, and fault attribution
//! (`item_seq`) points at the exact element inside a batch.

use crate::executor::{Executor, SpawnMode};
use crate::fault::{ErrorSlot, FailurePolicy, FaultCounters, Guard, RunOptions, RuntimeError};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use patty_telemetry::{LocalHistogram, Telemetry};
use patty_trace::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval of the result collector: how often a blocked run checks
/// its deadline and cancellation token.
const CANCEL_POLL: Duration = Duration::from_millis(10);

/// A pipeline stage function over stream elements of type `T`.
pub(crate) type StageFunc<T> = Arc<dyn Fn(T) -> T + Send + Sync>;

/// A run of consecutive stream elements: `(first sequence number,
/// elements)`. Element `j` of the vector has sequence `first + j`.
pub type Batch<T> = (u64, Vec<T>);

/// A buffer endpoint carrying batches.
type SeqSender<T> = Sender<Batch<T>>;
type SeqReceiver<T> = Receiver<Batch<T>>;

/// One pipeline stage definition.
pub struct Stage<T> {
    /// Stage name (TADL item), for diagnostics.
    pub name: String,
    /// The stage body.
    pub func: StageFunc<T>,
    /// Number of concurrent workers (StageReplication); clamped to ≥ 1.
    pub replication: usize,
    /// Restore element order after this stage when replicated
    /// (OrderPreservation).
    pub preserve_order: bool,
}

// Manual impl: `T: Clone` is not required because the function is shared
// behind an `Arc`.
impl<T> Clone for Stage<T> {
    fn clone(&self) -> Stage<T> {
        Stage {
            name: self.name.clone(),
            func: self.func.clone(),
            replication: self.replication,
            preserve_order: self.preserve_order,
        }
    }
}

impl<T> Stage<T> {
    /// A plain single-worker stage.
    pub fn new(name: impl Into<String>, func: impl Fn(T) -> T + Send + Sync + 'static) -> Stage<T> {
        Stage {
            name: name.into(),
            func: Arc::new(func),
            replication: 1,
            preserve_order: true,
        }
    }

    /// Set the replication degree.
    pub fn replicated(mut self, replication: usize) -> Stage<T> {
        self.replication = replication.max(1);
        self
    }

    /// Set the order-preservation flag.
    pub fn ordered(mut self, preserve: bool) -> Stage<T> {
        self.preserve_order = preserve;
        self
    }
}

/// A tunable software pipeline over elements of type `T`.
pub struct Pipeline<T> {
    stages: Vec<Stage<T>>,
    /// Capacity of each inter-stage buffer.
    pub buffer_capacity: usize,
    /// Fuse stage `i` with stage `i+1` into one thread (StageFusion);
    /// `fusion.len() == stages.len() - 1` (shorter vectors are treated as
    /// padded with `false`).
    pub fusion: Vec<bool>,
    /// Run everything in-place on the calling thread
    /// (SequentialExecution).
    pub sequential: bool,
    /// Elements per channel transaction (BatchSize); clamped to ≥ 1.
    /// Larger batches amortize channel, trace and cancellation overhead
    /// over more elements at the cost of coarser scheduling.
    pub batch: usize,
    /// Telemetry sink; disabled by default (a dead branch per item).
    telemetry: Telemetry,
    /// Structured event tracer; disabled by default (a dead branch per
    /// event, no clock reads).
    tracer: Tracer,
}

impl<T: Send + 'static> Pipeline<T> {
    /// A pipeline from stages with default tuning (no fusion, threaded).
    pub fn new(stages: Vec<Stage<T>>) -> Pipeline<T> {
        Pipeline {
            stages,
            buffer_capacity: 32,
            fusion: Vec::new(),
            sequential: false,
            batch: 1,
            telemetry: Telemetry::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Set the SequentialExecution flag.
    pub fn sequential(mut self, sequential: bool) -> Pipeline<T> {
        self.sequential = sequential;
        self
    }

    /// Set the fusion flags.
    pub fn with_fusion(mut self, fusion: Vec<bool>) -> Pipeline<T> {
        self.fusion = fusion;
        self
    }

    /// Set the inter-stage buffer capacity.
    pub fn with_buffer(mut self, capacity: usize) -> Pipeline<T> {
        self.buffer_capacity = capacity.max(1);
        self
    }

    /// Set the batch size (elements per channel transaction).
    pub fn with_batch(mut self, batch: usize) -> Pipeline<T> {
        self.batch = batch.max(1);
        self
    }

    /// Attach a telemetry sink. Each run then records, per effective
    /// stage: an `items` counter, a `queue_depth` histogram (buffer
    /// occupancy seen at receive) and a `wall_per_worker` span.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Pipeline<T> {
        self.telemetry = telemetry;
        self
    }

    /// Attach an event tracer. Each worker then records per-item
    /// `ItemStart`/`ItemEnd` events plus `StageBlockedRecv`/
    /// `StageBlockedSend` waits, an idle tail at exit, and any caught
    /// faults — see `patty_trace` for the event model.
    pub fn with_tracer(mut self, tracer: Tracer) -> Pipeline<T> {
        self.tracer = tracer;
        self
    }

    /// Compose fused neighbors into effective stages. A fused group runs
    /// in one thread; its replication is the minimum of its members'
    /// replications (a non-replicable member pins the group), and it
    /// preserves order if any member requires it.
    fn effective_stages(&self) -> Vec<Stage<T>> {
        let mut out: Vec<Stage<T>> = Vec::with_capacity(self.stages.len());
        for (i, s) in self.stages.iter().enumerate() {
            let fuse_with_prev = i > 0 && self.fusion.get(i - 1).copied().unwrap_or(false);
            if fuse_with_prev {
                let prev = out.last_mut().expect("fusion always has a previous stage");
                let f = prev.func.clone();
                let g = s.func.clone();
                prev.name = format!("{}+{}", prev.name, s.name);
                prev.func = Arc::new(move |x| g(f(x)));
                prev.replication = prev.replication.min(s.replication).max(1);
                prev.preserve_order |= s.preserve_order;
            } else {
                out.push(s.clone());
            }
        }
        out
    }

    /// Run the pipeline over an input stream, returning the elements that
    /// leave the last stage. With every replicated stage either
    /// order-preserving or absent, the output order equals the input
    /// order; otherwise elements may be reordered (and that is exactly
    /// what the OrderPreservation tuning parameter controls).
    ///
    /// Infallible legacy entry point: a panicking stage body re-panics on
    /// the calling thread (after sibling workers have drained and joined,
    /// so no thread or channel leaks). Use [`Pipeline::run_checked`] to
    /// get a structured [`RuntimeError`] instead.
    pub fn run(&self, input: Vec<T>) -> Vec<T> {
        let counters = FaultCounters::register(&self.telemetry);
        self.run_attempt(input, &RunOptions::default(), &counters)
            .unwrap_or_else(|(error, _)| panic!("{error}"))
    }

    /// Run the pipeline under a failure policy: worker panics become
    /// [`RuntimeError::StagePanicked`], the run observes the deadline and
    /// cancellation token of `opts`, and with
    /// [`FailurePolicy::FallbackSequential`] the items that never produced
    /// an output are re-executed sequentially — the result is then
    /// complete and in input order (the sequential oracle's order).
    ///
    /// `T: Clone` keeps a pristine copy of the input so a fallback can
    /// re-feed items whose in-flight values died with a worker.
    pub fn run_checked(&self, input: Vec<T>, opts: &RunOptions) -> Result<Vec<T>, RuntimeError>
    where
        T: Clone,
    {
        let counters = FaultCounters::register(&self.telemetry);
        let backup = (opts.on_failure == FailurePolicy::FallbackSequential)
            .then(|| input.clone());
        let (error, partial) = match self.run_attempt(input, opts, &counters) {
            Ok(out) => return Ok(out),
            Err(failed) => failed,
        };
        counters.recover(error, opts)?;
        // Graceful degradation: re-execute only the items whose outputs
        // are missing, in place, under fresh limits (the run's own token
        // is cancelled by now). A second panic on the same item means the
        // fault is persistent and is reported as the error.
        let orig = backup.expect("the fallback policy kept a copy of the input");
        self.run_in_place(orig, Some(partial), &RunOptions::default(), &counters)
            .map_err(|(error, _)| error)
    }

    /// One execution attempt. On failure the attempt reports the outputs
    /// that did complete (indexed by stream sequence number) so a
    /// fallback only re-executes the missing items.
    fn run_attempt(
        &self,
        input: Vec<T>,
        opts: &RunOptions,
        counters: &FaultCounters,
    ) -> Attempt<T> {
        if self.sequential || self.stages.is_empty() || input.is_empty() {
            return self.run_in_place(input, None, opts, counters);
        }
        let stages = self.effective_stages();
        let cap = self.buffer_capacity.max(1);
        let n_input = input.len();
        let errors = ErrorSlot::new();
        let cancel = opts.cancel.clone();
        let started = Instant::now();
        let mut collected: Vec<Option<T>> = (0..n_input).map(|_| None).collect();
        let mut arrival: Vec<u64> = Vec::with_capacity(n_input);

        let batch = self.batch.max(1);

        // Feeder, stage workers and reorderers block on their channels
        // for the whole run, so they submit as *resident* tasks: each
        // one is guaranteed a dedicated thread of execution (idle pool
        // lane, new lane, or ephemeral overflow thread) and can never
        // queue behind another blocked task.
        Executor::global().scope(SpawnMode::Pooled, |scope| {
            // StreamGenerator: the loop header becomes the implicit first
            // stage feeding the first buffer (rule PLPL). It observes the
            // cancellation token between sends so a failed run stops
            // feeding instead of filling buffers nobody drains. Elements
            // are grouped into consecutive runs of `batch` so every send
            // is one channel transaction for `batch` elements.
            let (feed_tx, mut prev_rx): (SeqSender<T>, SeqReceiver<T>) = bounded(cap);
            let feed_cancel = cancel.clone();
            scope.spawn_resident(move || {
                let mut iter = input.into_iter();
                let mut seq = 0u64;
                loop {
                    if feed_cancel.is_cancelled() {
                        return;
                    }
                    let run: Vec<T> = iter.by_ref().take(batch).collect();
                    if run.is_empty() {
                        return;
                    }
                    let len = run.len() as u64;
                    if feed_tx.send((seq, run)).is_err() {
                        return;
                    }
                    seq += len;
                }
            });

            for stage in &stages {
                let (tx, rx) = bounded::<Batch<T>>(cap);
                let items = self.telemetry.counter(&format!("pipeline.stage.{}.items", stage.name));
                // Pre-registered once per stage: the worker loop records
                // queue occupancy with a few relaxed atomic adds, never a
                // name lookup.
                let depth = self
                    .telemetry
                    .histogram(&format!("pipeline.stage.{}.queue_depth", stage.name));
                let span_name = format!("pipeline.stage.{}.wall_per_worker", stage.name);
                let stage_id = self.tracer.stage(&stage.name);
                for worker in 0..stage.replication {
                    let func = stage.func.clone();
                    let stage_rx = prev_rx.clone();
                    let stage_tx = tx.clone();
                    let items = items.clone();
                    let telemetry = self.telemetry.clone();
                    let depth = depth.clone();
                    let span_name = span_name.clone();
                    let stage_name = stage.name.as_str();
                    let cancel = cancel.clone();
                    let errors = &errors;
                    let stage_deadline = opts.stage_deadline;
                    let wt = self.tracer.worker(stage_id, worker);
                    scope.spawn_resident(move || {
                        let _wall = telemetry.span(&span_name);
                        let guard = Guard::new(stage_name, stage_deadline, counters, &wt);
                        let record_depth = telemetry.is_enabled();
                        // Occupancy samples accumulate worker-locally
                        // (plain arithmetic) and fold into the shared
                        // histogram once, when this worker exits.
                        let mut local_depth = LocalHistogram::new();
                        let run_start = wt.tick();
                        let mut wait_start = run_start;
                        let mut busy_ns = 0u64;
                        let mut items_done = 0u64;
                        loop {
                            let Ok((first, run)) = stage_rx.recv() else { break };
                            // Drain-and-exit: a cancelled run discards
                            // in-flight items so blocked upstream senders
                            // disconnect instead of deadlocking. One check
                            // covers the whole batch.
                            if cancel.is_cancelled() {
                                break;
                            }
                            if record_depth {
                                // Occupancy left behind in the input buffer —
                                // a persistently full buffer marks this stage
                                // as the bottleneck, an empty one as starved.
                                local_depth.record(stage_rx.len() as u64);
                            }
                            // One clock read covers the receive wait and
                            // the compute start of the whole batch.
                            let started = wt.begin_item(first, wait_start);
                            let mut out_run: Vec<T> = Vec::with_capacity(run.len());
                            let mut failed = false;
                            for (j, item) in run.into_iter().enumerate() {
                                match guard.invoke(first + j as u64, || func(item)) {
                                    Ok(out) => out_run.push(out),
                                    Err(error) => {
                                        errors.fail(error, &cancel);
                                        failed = true;
                                        break;
                                    }
                                }
                            }
                            // Forward whatever completed — on failure the
                            // surviving prefix is a valid partial result
                            // the fallback will not have to recompute.
                            if !out_run.is_empty() {
                                let done = out_run.len() as u64;
                                let ended = wt.item_end_n(first, done, started);
                                busy_ns += ended.since(started);
                                items_done += done;
                                if stage_tx.send((first, out_run)).is_err() {
                                    break;
                                }
                                // The send's end tick doubles as the
                                // start of the next receive wait.
                                wait_start = wt.blocked_send(first, ended);
                            }
                            if failed {
                                break;
                            }
                        }
                        wt.worker_idle(run_start, busy_ns, items_done);
                        // One flush per worker: the local tallies the
                        // loop kept anyway become the shared counters.
                        items.add(items_done);
                        depth.merge(&local_depth);
                    });
                }
                drop(tx);
                prev_rx = if stage.replication > 1 && stage.preserve_order {
                    // Reorder buffer: release elements in sequence order.
                    let (ord_tx, ord_rx) = bounded::<Batch<T>>(cap);
                    scope.spawn_resident(move || reorder(rx, ord_tx));
                    ord_rx
                } else {
                    rx
                };
            }

            // Collector: its blocking waits are bounded by the nearest
            // deadline (never more than CANCEL_POLL), so a 1 ms budget
            // aborts in ~1 ms instead of overshooting by a full poll
            // interval, and an external cancellation is still observed
            // within CANCEL_POLL. Items completed after a cancellation
            // are kept — they are valid partial results the fallback
            // will not have to recompute.
            loop {
                let mut wait = CANCEL_POLL;
                if let Some(budget) = opts.deadline {
                    if !cancel.is_cancelled() {
                        let elapsed = started.elapsed();
                        if elapsed > budget {
                            errors.fail(RuntimeError::DeadlineExceeded { budget }, &cancel);
                        } else {
                            // Wake right when the budget lands; the small
                            // slack guarantees `elapsed > budget` then.
                            wait = (budget - elapsed + Duration::from_micros(50))
                                .min(CANCEL_POLL);
                        }
                    }
                }
                match prev_rx.recv_timeout(wait) {
                    Ok((first, run)) => {
                        for (j, item) in run.into_iter().enumerate() {
                            let seq = first + j as u64;
                            collected[seq as usize] = Some(item);
                            arrival.push(seq);
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {}
                }
            }
        });

        match errors.finish(&cancel) {
            Some(error) => Err((error, collected)),
            None => Ok(arrival
                .into_iter()
                .map(|seq| collected[seq as usize].take().expect("collected once"))
                .collect()),
        }
    }

    /// In-place execution on the calling thread, every stage body under
    /// the [`Guard`]: SequentialExecution mode (`partial` is `None`) and
    /// the sequential fallback (`partial` holds the failed attempt's
    /// outputs by sequence number; those items are kept, not re-run, and
    /// each re-run one counts as retried). Item counters are recorded so
    /// a profile reports the same per-stage totals as a threaded run.
    fn run_in_place(
        &self,
        input: Vec<T>,
        partial: Option<Vec<Option<T>>>,
        opts: &RunOptions,
        counters: &FaultCounters,
    ) -> Attempt<T> {
        let item_counters = self.stage_item_counters();
        // The calling thread plays every stage, so each stage traces as
        // its worker 0.
        let tracers: Vec<_> =
            self.stages.iter().map(|s| self.tracer.worker(self.tracer.stage(&s.name), 0)).collect();
        let guards: Vec<Guard> = self
            .stages
            .iter()
            .zip(&tracers)
            .map(|(s, wt)| Guard::new(&s.name, opts.stage_deadline, counters, wt))
            .collect();
        let started = Instant::now();
        let retrying = partial.is_some();
        let mut collected = partial.unwrap_or_default();
        collected.resize_with(input.len(), || None);
        for (seq, item) in input.into_iter().enumerate() {
            if collected[seq].is_some() {
                continue;
            }
            if retrying {
                counters.items_retried.incr();
            }
            let through_stages = opts.check(started).and_then(|()| {
                let mut item = item;
                for (i, s) in self.stages.iter().enumerate() {
                    item = guards[i].invoke_traced(seq as u64, || (s.func)(item))?;
                    if let Some(c) = item_counters.get(i) {
                        c.incr();
                    }
                }
                Ok(item)
            });
            match through_stages {
                Ok(out) => collected[seq] = Some(out),
                Err(error) => return Err((error, collected)),
            }
        }
        Ok(collected.into_iter().map(|v| v.expect("all computed")).collect())
    }

    /// Per-stage item counters (empty when telemetry is disabled).
    fn stage_item_counters(&self) -> Vec<patty_telemetry::Counter> {
        if self.telemetry.is_enabled() {
            self.stages
                .iter()
                .map(|s| self.telemetry.counter(&format!("pipeline.stage.{}.items", s.name)))
                .collect()
        } else {
            Vec::new()
        }
    }
}

/// Outcome of one execution attempt: either every item made it through,
/// or a structured error plus whatever outputs completed (by sequence
/// number) for the fallback to build on.
type Attempt<T> = Result<Vec<T>, (RuntimeError, Vec<Option<T>>)>;

/// Entry in the reorder heap, ordered by first sequence number only.
struct Pending<T>(u64, Vec<T>);

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

/// Drain `rx`, releasing batches to `tx` in strict sequence order. A
/// batch is released when its first element is the next one due; the
/// cursor then advances by the whole run length.
fn reorder<T>(rx: SeqReceiver<T>, tx: SeqSender<T>) {
    let mut next: u64 = 0;
    let mut heap: BinaryHeap<Reverse<Pending<T>>> = BinaryHeap::new();
    while let Ok((seq, run)) = rx.recv() {
        heap.push(Reverse(Pending(seq, run)));
        while heap.peek().map(|Reverse(p)| p.0 == next).unwrap_or(false) {
            let Reverse(Pending(seq, run)) = heap.pop().expect("peeked");
            next = seq + run.len() as u64;
            if tx.send((seq, run)).is_err() {
                return;
            }
        }
    }
    // Input exhausted: flush whatever remains in sequence order (holes
    // can only happen if a producer died, in which case the run already
    // failed and these are partial results for the fallback).
    while let Some(Reverse(Pending(seq, run))) = heap.pop() {
        if tx.send((seq, run)).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn double_stage(name: &str) -> Stage<i64> {
        Stage::new(name, |x: i64| x * 2)
    }

    #[test]
    fn two_stage_pipeline_preserves_order_and_values() {
        let p = Pipeline::new(vec![double_stage("A"), Stage::new("B", |x: i64| x + 1)]);
        let out = p.run((0..100).collect());
        let expected: Vec<i64> = (0..100).map(|x| x * 2 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_flag_gives_identical_results() {
        let p = Pipeline::new(vec![double_stage("A"), double_stage("B")]);
        let threaded = p.run((0..50).collect());
        let seq = p.sequential(true).run((0..50).collect());
        assert_eq!(threaded, seq);
    }

    #[test]
    fn empty_input_and_empty_pipeline() {
        let p: Pipeline<i64> = Pipeline::new(vec![]);
        assert_eq!(p.run(vec![1, 2, 3]), vec![1, 2, 3]);
        let p2 = Pipeline::new(vec![double_stage("A")]);
        assert_eq!(p2.run(vec![]), Vec::<i64>::new());
    }

    #[test]
    fn replicated_stage_with_order_preservation_keeps_order() {
        // Make later elements finish faster to force reordering pressure.
        let stage = Stage::new("A", |x: i64| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            x * 10
        })
        .replicated(4)
        .ordered(true);
        let p = Pipeline::new(vec![stage, Stage::new("B", |x: i64| x + 1)]);
        let out = p.run((0..200).collect());
        let expected: Vec<i64> = (0..200).map(|x| x * 10 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn replicated_stage_without_order_preservation_keeps_multiset() {
        let stage = Stage::new("A", |x: i64| {
            if x % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x
        })
        .replicated(4)
        .ordered(false);
        let p = Pipeline::new(vec![stage]);
        let mut out = p.run((0..100).collect());
        out.sort();
        assert_eq!(out, (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn replication_actually_runs_concurrently() {
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (l, pk) = (live.clone(), peak.clone());
        let stage = Stage::new("A", move |x: i64| {
            let now = l.fetch_add(1, Ordering::SeqCst) + 1;
            pk.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            l.fetch_sub(1, Ordering::SeqCst);
            x
        })
        .replicated(4);
        let p = Pipeline::new(vec![stage]).with_buffer(16);
        p.run((0..32).collect());
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "replicated stage never overlapped (peak {})",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn fusion_composes_stages_in_one_thread() {
        let p = Pipeline::new(vec![
            double_stage("A"),
            Stage::new("B", |x: i64| x + 3),
            Stage::new("C", |x: i64| x * 5),
        ])
        .with_fusion(vec![true, false]);
        let stages = p.effective_stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "A+B");
        let out = p.run((0..10).collect());
        let expected: Vec<i64> = (0..10).map(|x| (x * 2 + 3) * 5).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn fusing_all_stages_still_correct() {
        let p = Pipeline::new(vec![
            double_stage("A"),
            Stage::new("B", |x: i64| x - 1),
            Stage::new("C", |x: i64| x * x),
        ])
        .with_fusion(vec![true, true]);
        let out = p.run((0..20).collect());
        let expected: Vec<i64> = (0..20).map(|x| {
            let y = x * 2 - 1;
            y * y
        }).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn fusion_pins_replication_to_minimum() {
        let p = Pipeline::new(vec![
            double_stage("A").replicated(4),
            Stage::new("B", |x: i64| x + 1), // replication 1
        ])
        .with_fusion(vec![true]);
        let stages = p.effective_stages();
        assert_eq!(stages[0].replication, 1);
    }

    #[test]
    fn pipeline_with_heavy_stage_is_faster_threaded_than_sequential() {
        // Coarse smoke check (not a benchmark): two stages of real work
        // should overlap.
        let mk = || {
            Pipeline::new(vec![
                Stage::new("A", |x: u64| {
                    (0..40_000u64).fold(x, |a, b| a.wrapping_add(b ^ a))
                }),
                Stage::new("B", |x: u64| {
                    (0..40_000u64).fold(x, |a, b| a.wrapping_mul(b | 1))
                }),
            ])
        };
        let input: Vec<u64> = (0..400).collect();
        let t0 = std::time::Instant::now();
        let seq = mk().sequential(true).run(input.clone());
        let t_seq = t0.elapsed();
        let t1 = std::time::Instant::now();
        let par = mk().run(input);
        let t_par = t1.elapsed();
        assert_eq!(seq, par);
        // Generous bound to avoid flakiness on loaded machines.
        assert!(
            t_par < t_seq * 2,
            "parallel run pathologically slow: {t_par:?} vs {t_seq:?}"
        );
    }

    #[test]
    fn string_elements_work() {
        let p = Pipeline::new(vec![
            Stage::new("up", |s: String| s.to_uppercase()),
            Stage::new("bang", |s: String| format!("{s}!")),
        ]);
        let out = p.run(vec!["a".into(), "b".into()]);
        assert_eq!(out, vec!["A!".to_string(), "B!".to_string()]);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn buffer_capacity_one_still_correct() {
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1),
            Stage::new("b", |x: i64| x * 2),
            Stage::new("c", |x: i64| x - 3),
        ])
        .with_buffer(1);
        let out = p.run((0..300).collect());
        let expected: Vec<i64> = (0..300).map(|x| (x + 1) * 2 - 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn large_replication_on_short_stream() {
        // more workers than elements: must neither deadlock nor drop
        let p = Pipeline::new(vec![Stage::new("a", |x: i64| x * 7).replicated(8)]);
        let out = p.run(vec![1, 2, 3]);
        assert_eq!(out, vec![7, 14, 21]);
    }

    #[test]
    fn single_element_through_deep_pipeline() {
        let stages: Vec<Stage<i64>> = (0..10)
            .map(|i| Stage::new(format!("s{i}"), move |x: i64| x + 1))
            .collect();
        let out = Pipeline::new(stages).run(vec![0]);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn checked_run_without_faults_matches_run() {
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1).replicated(3),
            Stage::new("b", |x: i64| x * 2),
        ]);
        let mut oracle = Vec::new();
        for x in 0..100i64 {
            oracle.push((x + 1) * 2);
        }
        assert_eq!(p.run_checked((0..100).collect(), &RunOptions::default()).unwrap(), oracle);
        assert_eq!(p.run((0..100).collect()), oracle);
    }

    #[test]
    fn panic_fails_fast_with_structured_error() {
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1),
            Stage::new("boom", |x: i64| {
                if x == 8 {
                    panic!("injected failure");
                }
                x
            }),
            Stage::new("c", |x: i64| x * 2),
        ]);
        let err = p
            .run_checked((0..50).collect(), &RunOptions::default())
            .unwrap_err();
        match err {
            RuntimeError::StagePanicked { stage, item_seq, payload } => {
                assert_eq!(stage, "boom");
                assert_eq!(item_seq, Some(7), "item 7 becomes 8 after stage a");
                assert!(payload.contains("injected failure"), "{payload}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn transient_panic_recovers_via_sequential_fallback() {
        use std::sync::atomic::AtomicBool;
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1).replicated(2),
            Stage::new("flaky", move |x: i64| {
                if x == 21 && !f.swap(true, Ordering::SeqCst) {
                    panic!("transient fault");
                }
                x * 10
            }),
            Stage::new("c", |x: i64| x - 3),
        ]);
        let opts = RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
        let out = p.run_checked((0..200).collect(), &opts).unwrap();
        let expected: Vec<i64> = (0..200).map(|x| (x + 1) * 10 - 3).collect();
        assert_eq!(out, expected, "fallback result equals the sequential oracle");
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn persistent_panic_fails_even_with_fallback() {
        let p = Pipeline::new(vec![Stage::new("always", |x: i64| {
            if x == 3 {
                panic!("persistent fault");
            }
            x
        })]);
        let opts = RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
        let err = p.run_checked((0..10).collect(), &opts).unwrap_err();
        assert!(matches!(err, RuntimeError::StagePanicked { ref stage, .. } if stage == "always"));
    }

    #[test]
    fn run_deadline_aborts_slow_stream() {
        let p = Pipeline::new(vec![Stage::new("slow", |x: i64| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            x
        })]);
        let opts = RunOptions::new().with_deadline(std::time::Duration::from_millis(60));
        let err = p.run_checked((0..500).collect(), &opts).unwrap_err();
        assert!(matches!(err, RuntimeError::DeadlineExceeded { .. }), "{err:?}");
    }

    /// Regression guard for the collector's bounded waits: with every
    /// worker stuck inside a slow item, nothing reaches the collector,
    /// and only the deadline-bounded `recv_timeout` can notice that the
    /// budget elapsed. The fixed 10 ms poll noticed a 4 ms deadline at
    /// ~10 ms; the bounded wait must notice within 2× the deadline.
    /// Cancellation is observed through the shared token — the
    /// `run_checked` return itself is bounded below by the in-flight
    /// 60 ms sleep, which the abort cannot (and must not) interrupt.
    #[test]
    fn deadline_abort_latency_is_bounded_by_the_deadline_not_the_poll() {
        let deadline = std::time::Duration::from_millis(4);
        let token = crate::CancelToken::new();
        let observer = token.clone();
        let p = Pipeline::new(vec![Stage::new("stuck", |x: i64| {
            std::thread::sleep(std::time::Duration::from_millis(60));
            x
        })]);
        let opts = RunOptions::new().with_deadline(deadline).with_cancel(token);
        let started = Instant::now();
        let run = std::thread::spawn(move || p.run_checked((0..64).collect(), &opts));
        // Record the observation without asserting: the runner thread
        // must be joined on every exit path, including a failed probe,
        // or a panicking assert would leak it mid-run.
        let cancelled_after = loop {
            if observer.is_cancelled() {
                break Some(started.elapsed());
            }
            if started.elapsed() >= std::time::Duration::from_millis(500) {
                break None;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        };
        let err = run.join().expect("runner thread").unwrap_err();
        let cancelled_after = cancelled_after.expect("deadline abort never observed");
        assert!(matches!(err, RuntimeError::DeadlineExceeded { .. }), "{err:?}");
        assert!(
            cancelled_after < deadline * 2,
            "abort latency {cancelled_after:?} exceeds 2x the {deadline:?} deadline"
        );
    }

    #[test]
    fn stage_deadline_flags_the_slow_stage() {
        let p = Pipeline::new(vec![
            Stage::new("fast", |x: i64| x),
            Stage::new("laggard", |x: i64| {
                if x == 5 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                x
            }),
        ]);
        let opts = RunOptions::new().with_stage_deadline(std::time::Duration::from_millis(10));
        let err = p.run_checked((0..20).collect(), &opts).unwrap_err();
        assert!(
            matches!(err, RuntimeError::StageDeadlineExceeded { ref stage, .. } if stage == "laggard"),
            "{err:?}"
        );
    }

    #[test]
    fn external_cancellation_stops_the_run() {
        let token = crate::CancelToken::new();
        token.cancel();
        let p = Pipeline::new(vec![Stage::new("a", |x: i64| x)]);
        let opts = RunOptions::new().with_cancel(token);
        let err = p.run_checked((0..100).collect(), &opts).unwrap_err();
        assert_eq!(err, RuntimeError::Cancelled);
    }

    #[test]
    fn sequential_mode_panics_are_structured_too() {
        let p = Pipeline::new(vec![Stage::new("boom", |x: i64| {
            if x == 2 {
                panic!("seq fault");
            }
            x
        })])
        .sequential(true);
        let err = p.run_checked((0..5).collect(), &RunOptions::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::StagePanicked { item_seq: Some(2), .. }), "{err:?}");
    }

    #[test]
    fn fault_counters_recorded_when_telemetry_enabled() {
        use std::sync::atomic::AtomicBool;
        let telemetry = Telemetry::enabled();
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let p = Pipeline::new(vec![Stage::new("flaky", move |x: i64| {
            if x == 4 && !f.swap(true, Ordering::SeqCst) {
                panic!("transient");
            }
            x
        })])
        .with_telemetry(telemetry.clone());
        let opts = RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
        let out = p.run_checked((0..10).collect(), &opts).unwrap();
        assert_eq!(out, (0..10).collect::<Vec<i64>>());
        let report = telemetry.report();
        assert_eq!(report.counter("fault.panics_caught"), Some(1));
        assert_eq!(report.counter("fault.fallbacks"), Some(1));
        assert!(report.counter("fault.items_retried").unwrap() >= 1);
        assert_eq!(report.counter("fault.deadline_aborts"), Some(0));
    }

    #[test]
    fn tracer_records_per_stage_events_threaded() {
        let tracer = Tracer::enabled();
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1).replicated(2),
            Stage::new("b", |x: i64| x * 2),
        ])
        .with_tracer(tracer.clone());
        let out = p.run((0..50).collect());
        assert_eq!(out.len(), 50);
        let report = tracer.report();
        let a = report.stage("a").expect("stage a summarized");
        let b = report.stage("b").expect("stage b summarized");
        assert_eq!(a.items, 50);
        assert_eq!(b.items, 50);
        assert_eq!(a.workers, 2);
        assert_eq!(b.workers, 1);
        assert_eq!(report.total_items, 100);
        assert_eq!(report.dropped_events, 0);
        // Stage order in the report follows pipeline order.
        assert_eq!(report.stages[0].name, "a");
        assert_eq!(report.stages[1].name, "b");
    }

    #[test]
    fn tracer_records_fused_stage_under_composed_name() {
        let tracer = Tracer::enabled();
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1),
            Stage::new("b", |x: i64| x * 2),
        ])
        .with_fusion(vec![true])
        .with_tracer(tracer.clone());
        p.run((0..10).collect());
        let report = tracer.report();
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].name, "a+b");
        assert_eq!(report.stages[0].items, 10);
    }

    #[test]
    fn tracer_records_sequential_and_checked_paths() {
        let tracer = Tracer::enabled();
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1),
            Stage::new("b", |x: i64| x * 2),
        ])
        .sequential(true)
        .with_tracer(tracer.clone());
        p.run_checked((0..20).collect(), &RunOptions::default()).unwrap();
        let report = tracer.report();
        assert_eq!(report.stage("a").unwrap().items, 20);
        assert_eq!(report.stage("b").unwrap().items, 20);
    }

    #[test]
    fn tracer_records_faults_on_checked_fallback() {
        use std::sync::atomic::AtomicBool;
        let tracer = Tracer::enabled();
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let p = Pipeline::new(vec![Stage::new("flaky", move |x: i64| {
            if x == 4 && !f.swap(true, Ordering::SeqCst) {
                panic!("transient");
            }
            x
        })])
        .with_tracer(tracer.clone());
        let opts = RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
        let out = p.run_checked((0..10).collect(), &opts).unwrap();
        assert_eq!(out, (0..10).collect::<Vec<i64>>());
        let report = tracer.report();
        assert_eq!(report.faults, 1);
        assert!(report.stage("flaky").unwrap().items >= 10, "retries add item events");
    }

    #[test]
    fn batched_run_matches_per_item_run() {
        let mk = || {
            Pipeline::new(vec![
                Stage::new("a", |x: i64| x + 1),
                Stage::new("b", |x: i64| x * 3),
            ])
        };
        let expected = mk().run((0..257).collect());
        for batch in [1, 2, 16, 64, 300, 1024] {
            let out = mk().with_batch(batch).run((0..257).collect());
            assert_eq!(out, expected, "batch {batch} diverged");
        }
    }

    #[test]
    fn batched_replicated_ordered_stream_keeps_order() {
        let stage = Stage::new("a", |x: i64| {
            if x % 13 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 10
        })
        .replicated(4)
        .ordered(true);
        let p = Pipeline::new(vec![stage, Stage::new("b", |x: i64| x + 1)]).with_batch(8);
        let out = p.run((0..500).collect());
        let expected: Vec<i64> = (0..500).map(|x| x * 10 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn batched_panic_attributes_the_true_element() {
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1),
            Stage::new("boom", |x: i64| {
                if x == 38 {
                    panic!("mid-batch failure");
                }
                x
            }),
        ])
        .with_batch(16);
        let err = p
            .run_checked((0..100).collect(), &RunOptions::default())
            .unwrap_err();
        match err {
            RuntimeError::StagePanicked { stage, item_seq, .. } => {
                assert_eq!(stage, "boom");
                assert_eq!(item_seq, Some(37), "element 37 becomes 38 after stage a");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn batched_transient_panic_recovers_via_fallback() {
        use std::sync::atomic::AtomicBool;
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1).replicated(2),
            Stage::new("flaky", move |x: i64| {
                if x == 77 && !f.swap(true, Ordering::SeqCst) {
                    panic!("transient fault");
                }
                x * 10
            }),
        ])
        .with_batch(8);
        let opts = RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
        let out = p.run_checked((0..300).collect(), &opts).unwrap();
        let expected: Vec<i64> = (0..300).map(|x| (x + 1) * 10).collect();
        assert_eq!(out, expected, "batched fallback equals the sequential oracle");
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn batched_tracer_counts_every_stream_element() {
        let tracer = Tracer::enabled();
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1).replicated(2),
            Stage::new("b", |x: i64| x * 2),
        ])
        .with_batch(16)
        .with_tracer(tracer.clone());
        let out = p.run((0..100).collect());
        assert_eq!(out.len(), 100);
        let report = tracer.report();
        assert_eq!(report.stage("a").unwrap().items, 100);
        assert_eq!(report.stage("b").unwrap().items, 100);
        assert_eq!(report.total_items, 200);
    }

    #[test]
    fn batched_telemetry_counts_every_stream_element() {
        let telemetry = Telemetry::enabled();
        let p = Pipeline::new(vec![Stage::new("a", |x: i64| x)])
            .with_batch(32)
            .with_telemetry(telemetry.clone());
        p.run((0..100).collect());
        let report = telemetry.report();
        assert_eq!(report.counter("pipeline.stage.a.items"), Some(100));
    }

    #[test]
    fn fusion_vector_shorter_than_stages_is_padded() {
        let p = Pipeline::new(vec![
            Stage::new("a", |x: i64| x + 1),
            Stage::new("b", |x: i64| x + 10),
            Stage::new("c", |x: i64| x + 100),
        ])
        .with_fusion(vec![true]); // only one flag for two boundaries
        let out = p.run(vec![0]);
        assert_eq!(out, vec![111]);
        assert_eq!(p.effective_stages().len(), 2);
    }
}
