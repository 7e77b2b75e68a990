//! The master/worker pattern.
//!
//! The master distributes work items to a pool of workers and collects
//! results in submission order. In Patty's generated code a master/worker
//! appears both standalone and nested inside a pipeline stage (the
//! `(A || B || C+)` group of Fig. 3d, where independent items of one
//! stream element run in parallel).

use crate::executor::{Executor, SpawnMode};
use crate::fault::{ErrorSlot, FailurePolicy, FaultCounters, Guard, RunOptions, RuntimeError};
use patty_telemetry::Telemetry;
use patty_trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A master/worker executor with a fixed worker count.
#[derive(Clone, Debug)]
pub struct MasterWorker {
    /// Number of worker threads (≥ 1).
    pub workers: usize,
    /// SequentialExecution fallback.
    pub sequential: bool,
    /// Telemetry sink; disabled by default.
    telemetry: Telemetry,
    /// Structured event tracer; disabled by default.
    tracer: Tracer,
}

impl Default for MasterWorker {
    fn default() -> MasterWorker {
        MasterWorker::new(4)
    }
}

impl MasterWorker {
    /// Create a master/worker with `workers` threads.
    pub fn new(workers: usize) -> MasterWorker {
        MasterWorker {
            workers: workers.max(1),
            sequential: false,
            telemetry: Telemetry::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Set the SequentialExecution flag.
    pub fn sequential(mut self, sequential: bool) -> MasterWorker {
        self.sequential = sequential;
        self
    }

    /// Attach a telemetry sink. Runs then record `masterworker.items`
    /// and `masterworker.tasks` counters and a per-run wall-time span.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> MasterWorker {
        self.telemetry = telemetry;
        self
    }

    /// Attach an event tracer: per-worker `ItemStart`/`ItemEnd` events
    /// under the `"masterworker"` stage, idle tails and caught faults.
    pub fn with_tracer(mut self, tracer: Tracer) -> MasterWorker {
        self.tracer = tracer;
        self
    }

    /// Apply `task` to every item; results come back in item order.
    ///
    /// Infallible entry point: a panicking task re-panics on the calling
    /// thread after every worker has joined (no leaked threads), with the
    /// message of the error [`MasterWorker::run_checked`] returns.
    pub fn run<I, O, F>(&self, items: Vec<I>, task: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Send + Sync,
    {
        let counters = FaultCounters::register(&self.telemetry);
        let (results, error) = self.attempt(items, &task, &RunOptions::default(), &counters);
        if let Some(error) = error {
            panic!("{error}");
        }
        results
            .into_iter()
            .map(|slot| slot.expect("worker filled every slot"))
            .collect()
    }

    /// Apply `task` to every item under a failure policy: panics become
    /// [`RuntimeError::StagePanicked`], workers observe the deadline and
    /// cancellation token of `opts`, and with
    /// [`FailurePolicy::FallbackSequential`] the items that never produced
    /// a result are re-executed sequentially on the calling thread.
    pub fn run_checked<I, O, F>(
        &self,
        items: Vec<I>,
        task: F,
        opts: &RunOptions,
    ) -> Result<Vec<O>, RuntimeError>
    where
        I: Send + Clone,
        O: Send,
        F: Fn(I) -> O + Send + Sync,
    {
        let counters = FaultCounters::register(&self.telemetry);
        let backup = (opts.on_failure == FailurePolicy::FallbackSequential)
            .then(|| items.clone());
        let (results, error) = self.attempt(items, &task, opts, &counters);
        let Some(error) = error else {
            return Ok(results
                .into_iter()
                .map(|slot| slot.expect("worker filled every slot"))
                .collect());
        };
        counters.recover(error, opts)?;
        // Graceful degradation: recompute only the missing slots.
        let orig = backup.expect("the fallback policy kept a copy of the input");
        let item_counter = self.telemetry.counter("masterworker.items");
        let wt = self.tracer.worker(self.tracer.stage("masterworker"), 0);
        let guard = Guard::new("masterworker", None, &counters, &wt);
        let recompute = |(idx, (slot, item)): (usize, (Option<O>, I))| match slot {
            Some(done) => Ok(done),
            None => {
                counters.items_retried.incr();
                let out = guard.invoke_traced(idx as u64, || task(item))?;
                item_counter.incr();
                Ok(out)
            }
        };
        results.into_iter().zip(orig).enumerate().map(recompute).collect()
    }

    /// One execution attempt: per-index results (`None` where no output
    /// was produced) plus the first error, if any.
    fn attempt<I, O, F>(
        &self,
        items: Vec<I>,
        task: &F,
        opts: &RunOptions,
        counters: &FaultCounters,
    ) -> (Vec<Option<O>>, Option<RuntimeError>)
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Send + Sync,
    {
        let item_counter = self.telemetry.counter("masterworker.items");
        let _wall = self.telemetry.span("masterworker.run");
        let stage_id = self.tracer.stage("masterworker");
        let n = items.len();
        let started = Instant::now();
        if self.sequential || self.workers <= 1 || n <= 1 {
            let wt = self.tracer.worker(stage_id, 0);
            let guard = Guard::new("masterworker", opts.stage_deadline, counters, &wt);
            let mut results: Vec<Option<O>> = (0..n).map(|_| None).collect();
            for (idx, item) in items.into_iter().enumerate() {
                let ran = opts
                    .check(started)
                    .and_then(|()| guard.invoke_traced(idx as u64, || task(item)));
                match ran {
                    Ok(out) => {
                        item_counter.incr();
                        results[idx] = Some(out);
                    }
                    Err(error) => return (results, Some(error)),
                }
            }
            return (results, None);
        }
        let errors = ErrorSlot::new();
        // Item slots: each worker claims the next index atomically.
        let slots: Vec<parking_lot::Mutex<Option<I>>> =
            items.into_iter().map(|i| parking_lot::Mutex::new(Some(i))).collect();
        let results: Vec<parking_lot::Mutex<Option<O>>> =
            (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        Executor::global().scope(SpawnMode::Pooled, |scope| {
            for worker in 0..self.workers.min(n) {
                let (slots, results, next, errors) = (&slots, &results, &next, &errors);
                let item_counter = &item_counter;
                let wt = self.tracer.worker(stage_id, worker);
                scope.spawn(move || {
                    let guard = Guard::new("masterworker", opts.stage_deadline, counters, &wt);
                    let run_start = wt.tick();
                    let mut items_done = 0u64;
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let item = slots[idx].lock().take().expect("each slot claimed once");
                        let ran = errors
                            .check(opts, started)
                            .and_then(|()| guard.invoke_traced(idx as u64, || task(item)));
                        match ran {
                            Ok(out) => {
                                items_done += 1;
                                item_counter.incr();
                                *results[idx].lock() = Some(out);
                            }
                            Err(error) => {
                                errors.fail(error, &opts.cancel);
                                break;
                            }
                        }
                    }
                    wt.worker_idle(run_start, guard.busy_ns.get(), items_done);
                });
            }
        });
        let error = errors.finish(&opts.cancel);
        (results.into_iter().map(|m| m.into_inner()).collect(), error)
    }

    /// Run `k` heterogeneous closures concurrently and collect their
    /// results in declaration order — the `(A || B || C)` group applied to
    /// one stream element.
    ///
    /// Infallible entry point: after every sibling has joined, the first
    /// panic in declaration order re-panics on the calling thread with
    /// the message of the error [`MasterWorker::join_all_checked`] returns.
    pub fn join_all<O, F>(&self, tasks: Vec<F>) -> Vec<O>
    where
        O: Send,
        F: FnOnce() -> O + Send,
    {
        self.join_all_checked(tasks, &RunOptions::default())
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`MasterWorker::join_all`] with panic isolation: every task runs to
    /// completion (an `FnOnce` already started cannot be cancelled or
    /// retried, so deadlines and fallback do not apply here); the first
    /// panic, in declaration order, is returned as
    /// [`RuntimeError::StagePanicked`] with `item_seq` naming the task.
    pub fn join_all_checked<O, F>(
        &self,
        tasks: Vec<F>,
        opts: &RunOptions,
    ) -> Result<Vec<O>, RuntimeError>
    where
        O: Send,
        F: FnOnce() -> O + Send,
    {
        let counters = FaultCounters::register(&self.telemetry);
        self.telemetry.add("masterworker.tasks", tasks.len() as u64);
        if opts.cancel.is_cancelled() {
            counters.cancellations.incr();
            return Err(RuntimeError::Cancelled);
        }
        let stage_id = self.tracer.stage("masterworker");
        let pooled = !(self.sequential || self.workers <= 1 || tasks.len() <= 1);
        // Pool tasks return no value, so each task parks its outcome in
        // its own slot. The guard catches the task's panic, so the slot
        // is always filled. Pooled tasks trace one lane each.
        let slots: Vec<parking_lot::Mutex<Option<Result<O, RuntimeError>>>> =
            (0..tasks.len()).map(|_| parking_lot::Mutex::new(None)).collect();
        let join_one = |idx: usize, task: F| {
            let wt = self.tracer.worker(stage_id, if pooled { idx } else { 0 });
            let stage = format!("task{idx}");
            let guard = Guard::new(&stage, None, &counters, &wt);
            *slots[idx].lock() = Some(guard.invoke_traced(idx as u64, task));
        };
        if pooled {
            Executor::global().scope(SpawnMode::Pooled, |scope| {
                let join_one = &join_one;
                for (idx, task) in tasks.into_iter().enumerate() {
                    scope.spawn(move || join_one(idx, task));
                }
            });
        } else {
            tasks.into_iter().enumerate().for_each(|(idx, task)| join_one(idx, task));
        }
        slots.into_iter().map(|m| m.into_inner().expect("every task ran")).collect()
    }
}

/// A replicable work item, mirroring the paper's runtime-library surface
/// (`mw.Item(p3).replicable = true`, Fig. 3d).
pub struct Item<I, O> {
    pub name: String,
    pub func: Arc<dyn Fn(I) -> O + Send + Sync>,
    pub replicable: bool,
}

impl<I, O> Item<I, O> {
    /// A new item around a function.
    pub fn new(name: impl Into<String>, func: impl Fn(I) -> O + Send + Sync + 'static) -> Self {
        Item { name: name.into(), func: Arc::new(func), replicable: false }
    }

    /// Mark the item replicable.
    pub fn replicable(mut self, yes: bool) -> Self {
        self.replicable = yes;
        self
    }
}

impl<I, O> Clone for Item<I, O> {
    fn clone(&self) -> Self {
        Item { name: self.name.clone(), func: self.func.clone(), replicable: self.replicable }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_in_item_order() {
        let mw = MasterWorker::new(4);
        let out = mw.run((0..100).collect::<Vec<i64>>(), |x| x * x);
        let expected: Vec<i64> = (0..100).map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_fallback_identical() {
        let mw_par = MasterWorker::new(4);
        let mw_seq = MasterWorker::new(4).sequential(true);
        let a = mw_par.run((0..40).collect::<Vec<i64>>(), |x| x + 7);
        let b = mw_seq.run((0..40).collect::<Vec<i64>>(), |x| x + 7);
        assert_eq!(a, b);
    }

    #[test]
    fn actually_parallel() {
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mw = MasterWorker::new(4);
        let (l, p) = (live.clone(), peak.clone());
        mw.run((0..16).collect::<Vec<i64>>(), move |x| {
            let now = l.fetch_add(1, Ordering::SeqCst) + 1;
            p.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            l.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert!(peak.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn join_all_collects_heterogeneous_work_in_order() {
        let mw = MasterWorker::new(3);
        let out = mw.join_all(vec![
            Box::new(|| 1i64) as Box<dyn FnOnce() -> i64 + Send>,
            Box::new(|| 2),
            Box::new(|| 3),
        ]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn single_item_avoids_threads() {
        let mw = MasterWorker::new(8);
        assert_eq!(mw.run(vec![42i64], |x| x), vec![42]);
        assert_eq!(mw.run(Vec::<i64>::new(), |x| x), Vec::<i64>::new());
    }

    #[test]
    fn tracer_records_items_across_workers() {
        let tracer = Tracer::enabled();
        let mw = MasterWorker::new(4).with_tracer(tracer.clone());
        let out = mw.run((0..64).collect::<Vec<i64>>(), |x| x * 2);
        assert_eq!(out.len(), 64);
        let report = tracer.report();
        let s = report.stage("masterworker").expect("stage summarized");
        assert_eq!(s.items, 64);
        assert!(s.workers >= 2 && s.workers <= 4, "workers: {}", s.workers);
        // join_all rides the same stage.
        let tracer2 = Tracer::enabled();
        let mw2 = MasterWorker::new(3).with_tracer(tracer2.clone());
        mw2.join_all(vec![
            Box::new(|| 1i64) as Box<dyn FnOnce() -> i64 + Send>,
            Box::new(|| 2),
            Box::new(|| 3),
        ]);
        assert_eq!(tracer2.report().stage("masterworker").unwrap().items, 3);
    }

    #[test]
    fn item_builder() {
        let item = Item::new("crop", |x: i64| x * 2).replicable(true);
        assert!(item.replicable);
        assert_eq!((item.func)(21), 42);
        let c = item.clone();
        assert_eq!(c.name, "crop");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FailurePolicy, RunOptions, RuntimeError};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn checked_run_without_faults_matches_run() {
        let mw = MasterWorker::new(4);
        let mut oracle = Vec::new();
        for x in 0..64i64 {
            oracle.push(x * 3);
        }
        let checked = mw
            .run_checked((0..64).collect::<Vec<i64>>(), |x| x * 3, &RunOptions::default())
            .unwrap();
        assert_eq!(checked, oracle);
        assert_eq!(mw.run((0..64).collect::<Vec<i64>>(), |x| x * 3), oracle);
    }

    /// Satellite requirement: a panicking worker returns `StagePanicked`
    /// without leaking threads. The guard counts workers that entered and
    /// left the task body; the executor scope waits for every submitted
    /// task before `run_checked` returns, so any live worker after return
    /// would leave the counter nonzero.
    #[test]
    fn worker_panic_returns_structured_error_without_leaking_threads() {
        let live = Arc::new(AtomicUsize::new(0));
        let entered = Arc::new(AtomicUsize::new(0));
        let mw = MasterWorker::new(4);
        let (l, e) = (live.clone(), entered.clone());
        let err = mw
            .run_checked(
                (0..100).collect::<Vec<i64>>(),
                move |x| {
                    l.fetch_add(1, Ordering::SeqCst);
                    e.fetch_add(1, Ordering::SeqCst);
                    let guard = scopeguard(&l);
                    if x == 17 {
                        panic!("worker died");
                    }
                    // Slow enough that cancellation measurably cuts the
                    // remaining stream short.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    drop(guard);
                    x
                },
                &RunOptions::default(),
            )
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::StagePanicked { item_seq: Some(17), .. }),
            "{err:?}"
        );
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "all workers joined before run_checked returned"
        );
        assert!(
            entered.load(Ordering::SeqCst) < 100,
            "cancellation stopped remaining items from running"
        );
    }

    /// Decrements the live counter even when the task body unwinds.
    fn scopeguard(counter: &Arc<AtomicUsize>) -> impl Drop + '_ {
        struct Guard<'a>(&'a AtomicUsize);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        Guard(counter)
    }

    #[test]
    fn transient_panic_recovers_via_fallback() {
        use std::sync::atomic::AtomicBool;
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let mw = MasterWorker::new(4);
        let opts = RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
        let out = mw
            .run_checked(
                (0..50).collect::<Vec<i64>>(),
                move |x| {
                    if x == 23 && !f.swap(true, Ordering::SeqCst) {
                        panic!("transient");
                    }
                    x + 1
                },
                &opts,
            )
            .unwrap();
        assert_eq!(out, (1..=50).collect::<Vec<i64>>());
    }

    #[test]
    fn deadline_aborts_a_slow_run() {
        let mw = MasterWorker::new(2);
        let opts = RunOptions::new().with_deadline(std::time::Duration::from_millis(40));
        let err = mw
            .run_checked(
                (0..1000).collect::<Vec<i64>>(),
                |x| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    x
                },
                &opts,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DeadlineExceeded { .. }), "{err:?}");
    }

    #[test]
    fn join_all_checked_reports_first_failing_task() {
        let mw = MasterWorker::new(3);
        let err = mw
            .join_all_checked(
                vec![
                    Box::new(|| 1i64) as Box<dyn FnOnce() -> i64 + Send>,
                    Box::new(|| panic!("task 1 failed")),
                    Box::new(|| 3),
                ],
                &RunOptions::default(),
            )
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::StagePanicked { item_seq: Some(1), .. }),
            "{err:?}"
        );
        let ok = mw
            .join_all_checked(
                vec![
                    Box::new(|| 1i64) as Box<dyn FnOnce() -> i64 + Send>,
                    Box::new(|| 2),
                ],
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(ok, vec![1, 2]);
    }

    #[test]
    fn sequential_path_is_checked_too() {
        let mw = MasterWorker::new(1);
        let err = mw
            .run_checked(
                (0..10).collect::<Vec<i64>>(),
                |x| if x == 4 { panic!("seq") } else { x },
                &RunOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::StagePanicked { item_seq: Some(4), .. }));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn join_all_empty_and_single() {
        let mw = MasterWorker::new(4);
        let empty: Vec<Box<dyn FnOnce() -> i64 + Send>> = vec![];
        assert!(mw.join_all(empty).is_empty());
        let one = mw.join_all(vec![Box::new(|| 9i64) as Box<dyn FnOnce() -> i64 + Send>]);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn more_workers_than_items() {
        let mw = MasterWorker::new(16);
        let out = mw.run(vec![1i64, 2, 3], |x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn heavy_item_count() {
        let mw = MasterWorker::new(4);
        let out = mw.run((0..5_000i64).collect::<Vec<_>>(), |x| x ^ 0xFF);
        assert_eq!(out.len(), 5_000);
        assert!(out.iter().enumerate().all(|(i, v)| *v == (i as i64) ^ 0xFF));
    }
}
