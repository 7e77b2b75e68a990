//! # patty-trace
//!
//! Structured per-item event tracing for the pattern runtime. Where
//! `patty-telemetry` answers *how much* (aggregate counters, histograms,
//! span totals), tracing answers *where and when*:
//! every worker thread records fixed-size events — item start/end,
//! blocked sends and receives, idle tails, caught faults, tuner steps —
//! into a private lock-free ring buffer, and a collector snapshots the
//! rings into a deterministic [`TraceReport`] with per-stage latency
//! percentiles, queue-wait vs compute breakdown, worker utilization and
//! the critical path through the pipeline DAG.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** A [`Tracer::disabled`] handle makes every
//!    hot-path call a branch on `None` — no clock read, no atomic, no
//!    allocation. Pattern builders default to it.
//! 2. **No allocation or locks on the hot path.** An enabled
//!    [`WorkerTracer`] writes five relaxed `AtomicU64` stores plus one
//!    release store per event into a pre-sized ring. The only locks are
//!    in registration (`Tracer::stage` / `Tracer::worker`, called once
//!    per worker before it starts) and in the snapshot.
//! 3. **Overflow is accounted, never silent.** A full ring wraps and
//!    overwrites the oldest events; the number of overwritten events is
//!    reported as `dropped_events` (satellite: ring-buffer wrap
//!    semantics).
//! 4. **Reports are deterministic.** Stages appear in registration
//!    (pipeline) order, threads sorted by `(stage, worker)`, derived
//!    ratios stored as integer permille. With the virtual clock of
//!    [`Tracer::deterministic`], a single-threaded run produces
//!    byte-identical JSON across runs.
//!
//! Exporters ([`export`]) render a raw [`Trace`] as Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto) and a
//! [`TraceReport`] as a plain-text flame summary.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod export;
pub mod report;

pub use export::{chrome_trace, flame_summary};
pub use report::{StageSummary, TraceReport};

/// Events per ring by default: 8192 × 48 bytes = 384 KiB per worker,
/// enough for ~2700 items per worker at 3 events/item before wrapping
/// (batched runs record one event pair per batch, so they go further).
pub(crate) const DEFAULT_RING_CAPACITY: usize = 8192;

/// Nanoseconds the virtual clock advances per read; every clock access
/// is one tick, so deterministic call sequences yield deterministic
/// timestamps.
pub(crate) const VIRTUAL_TICK_NS: u64 = 1_000;

/// Stage id reserved for auto-tuner step events (not a pipeline stage).
pub(crate) const TUNER_STAGE: u16 = u16::MAX;

/// Name reported for [`TUNER_STAGE`].
pub(crate) const TUNER_STAGE_NAME: &str = "tuner";

/// The seven fixed event kinds a worker can record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A worker began computing one stream element / chunk.
    ItemStart,
    /// The matching completion; `dur_ns` is the compute time.
    ItemEnd,
    /// Time spent blocked pushing into a full downstream buffer.
    StageBlockedSend,
    /// Time spent blocked waiting on an empty upstream buffer.
    StageBlockedRecv,
    /// Idle tail of a worker: wall time minus busy time at exit.
    WorkerIdle,
    /// A worker panic was caught and converted to a structured error.
    FaultCaught,
    /// One auto-tuner evaluation; `item` is the iteration, `dur_ns` the
    /// measured objective in nanoseconds.
    TunerStep,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::ItemStart,
            1 => EventKind::ItemEnd,
            2 => EventKind::StageBlockedSend,
            3 => EventKind::StageBlockedRecv,
            4 => EventKind::WorkerIdle,
            5 => EventKind::FaultCaught,
            6 => EventKind::TunerStep,
            _ => return None,
        })
    }

    /// Stable lowercase name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ItemStart => "item_start",
            EventKind::ItemEnd => "item_end",
            EventKind::StageBlockedSend => "blocked_send",
            EventKind::StageBlockedRecv => "blocked_recv",
            EventKind::WorkerIdle => "worker_idle",
            EventKind::FaultCaught => "fault_caught",
            EventKind::TunerStep => "tuner_step",
        }
    }
}

/// One decoded trace event. `tick_ns` is the event's completion time on
/// the tracer clock; for duration events the interval is
/// `[tick_ns - dur_ns, tick_ns]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-ring sequence number (0-based, gap-free unless dropped).
    pub seqno: u64,
    pub tick_ns: u64,
    pub kind: EventKind,
    /// Stage id from the tracer's interner (`u16::MAX`, the reserved
    /// tuner stage, for tuner steps).
    pub stage: u16,
    /// Worker index within the stage.
    pub worker: u16,
    /// Stream sequence number / loop index / task or iteration number.
    /// For batch events this is the first element of the run.
    pub item: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Stream elements this event accounts for (1 for per-item events;
    /// the batch/chunk length for batched `ItemEnd` events, so per-stage
    /// item counts stay equal to the stream length under batching).
    pub count: u64,
}

/// Slot layout: six words written relaxed, published by a release
/// store of the ring head. seqno doubles as a torn-read detector.
const WORDS: usize = 6;

struct Slot {
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot { words: [const { AtomicU64::new(0) }; WORDS] }
    }
}

/// A single-producer event ring. The runtime hands each worker thread
/// its own ring (via [`WorkerTracer`]), so writes never contend; the
/// collector reads concurrently and discards torn slots by seqno check.
struct EventRing {
    slots: Box<[Slot]>,
    /// Total events ever written; the publication point.
    head: AtomicU64,
    mask: u64,
    stage: u16,
    worker: u16,
}

impl EventRing {
    fn new(capacity: usize, stage: u16, worker: u16) -> EventRing {
        let cap = capacity.next_power_of_two().max(2);
        EventRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            mask: cap as u64 - 1,
            stage,
            worker,
        }
    }

    #[inline]
    fn push(&self, kind: EventKind, tick_ns: u64, item: u64, dur_ns: u64, count: u64) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n & self.mask) as usize];
        let packed =
            kind as u64 | (self.stage as u64) << 8 | (self.worker as u64) << 24;
        slot.words[0].store(n, Ordering::Relaxed);
        slot.words[1].store(tick_ns, Ordering::Relaxed);
        slot.words[2].store(packed, Ordering::Relaxed);
        slot.words[3].store(item, Ordering::Relaxed);
        slot.words[4].store(dur_ns, Ordering::Relaxed);
        slot.words[5].store(count, Ordering::Relaxed);
        self.head.store(n + 1, Ordering::Release);
    }

    /// Decode the surviving window in seqno order, plus the overwrite
    /// count. Slots whose stored seqno disagrees (a write raced the
    /// snapshot) are skipped rather than misreported.
    fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.mask + 1;
        let dropped = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - dropped) as usize);
        for n in dropped..head {
            let slot = &self.slots[(n & self.mask) as usize];
            if slot.words[0].load(Ordering::Relaxed) != n {
                continue;
            }
            let packed = slot.words[2].load(Ordering::Relaxed);
            let Some(kind) = EventKind::from_u8((packed & 0xFF) as u8) else {
                continue;
            };
            events.push(TraceEvent {
                seqno: n,
                tick_ns: slot.words[1].load(Ordering::Relaxed),
                kind,
                stage: (packed >> 8 & 0xFFFF) as u16,
                worker: (packed >> 24 & 0xFFFF) as u16,
                item: slot.words[3].load(Ordering::Relaxed),
                dur_ns: slot.words[4].load(Ordering::Relaxed),
                count: slot.words[5].load(Ordering::Relaxed),
            });
        }
        (events, dropped)
    }
}

/// The tracer clock: monotonic for real measurements, virtual (one
/// [`VIRTUAL_TICK_NS`] per read) for byte-identical pinning tests.
enum Clock {
    Monotonic(Instant),
    Virtual(AtomicU64),
}

impl Clock {
    #[inline]
    fn now_ns(&self) -> u64 {
        match self {
            Clock::Monotonic(epoch) => {
                epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
            }
            Clock::Virtual(counter) => {
                counter.fetch_add(VIRTUAL_TICK_NS, Ordering::Relaxed) + VIRTUAL_TICK_NS
            }
        }
    }
}

struct Inner {
    clock: Clock,
    capacity: usize,
    /// Stage-name interner; index order is registration (pipeline)
    /// order and defines the stage ids of all events.
    stages: Mutex<Vec<String>>,
    rings: Mutex<Vec<Arc<EventRing>>>,
}

impl Inner {
    fn ring(&self, stage: u16, worker: u16) -> Arc<EventRing> {
        let mut rings = self.rings.lock();
        // Reuse an existing ring for the same (stage, worker) so
        // sequential fallbacks and repeated runs extend one timeline.
        // The runtime never runs two live threads on the same pair.
        if let Some(r) = rings.iter().find(|r| r.stage == stage && r.worker == worker) {
            return Arc::clone(r);
        }
        let r = Arc::new(EventRing::new(self.capacity, stage, worker));
        rings.push(Arc::clone(&r));
        r
    }
}

/// Opaque stage id returned by [`Tracer::stage`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageId(u16);

/// A clock reading passed back into the recording calls so one read
/// serves several events. `Tick::none()` is inert.
#[derive(Clone, Copy, Debug)]
pub struct Tick(Option<u64>);

impl Tick {
    /// The inert tick (what disabled handles return).
    pub fn none() -> Tick {
        Tick(None)
    }

    /// Nanoseconds from `earlier` to `self` (0 if either is inert).
    pub fn since(&self, earlier: Tick) -> u64 {
        match (self.0, earlier.0) {
            (Some(now), Some(then)) => now.saturating_sub(then),
            _ => 0,
        }
    }
}

/// A cheaply cloneable tracing handle — either a shared sink or a
/// no-op, mirroring `patty_telemetry::Telemetry`. Pattern builders
/// take one by value; `Tracer::disabled()` is the default everywhere.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

impl Tracer {
    /// A live tracer with the default ring capacity and a monotonic
    /// clock.
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A live tracer with `capacity` events per worker ring (rounded up
    /// to a power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                clock: Clock::Monotonic(Instant::now()),
                capacity,
                stages: Mutex::new(Vec::new()),
                rings: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A live tracer on the virtual clock: every clock read advances a
    /// counter by exactly 1 µs, so a single-threaded run
    /// produces byte-identical reports across runs (the pinning-test
    /// mode).
    pub fn deterministic(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                clock: Clock::Virtual(AtomicU64::new(0)),
                capacity,
                stages: Mutex::new(Vec::new()),
                rings: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op handle. Never reads the clock, never allocates.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern a stage name. The first registration order defines the
    /// stage order of every report (for a pipeline: pipeline order).
    pub fn stage(&self, name: &str) -> StageId {
        let Some(inner) = &self.inner else {
            return StageId(0);
        };
        let mut stages = inner.stages.lock();
        let id = match stages.iter().position(|s| s == name) {
            Some(i) => i,
            None => {
                stages.push(name.to_string());
                stages.len() - 1
            }
        };
        StageId(id.min(u16::MAX as usize - 1) as u16)
    }

    /// A recording handle for one worker thread of a stage. Registers
    /// (or reuses) that worker's ring; call before spawning the worker,
    /// then move the handle into it.
    pub fn worker(&self, stage: StageId, worker: usize) -> WorkerTracer {
        let Some(inner) = &self.inner else {
            return WorkerTracer::disabled();
        };
        let worker = worker.min(u16::MAX as usize) as u16;
        WorkerTracer {
            core: Some((inner.ring(stage.0, worker), Arc::clone(inner))),
        }
    }

    /// Record one auto-tuner evaluation: `iteration` (1-based) and the
    /// measured objective in nanoseconds. Reported as
    /// `TraceReport::tuner_steps` and exported on a dedicated pseudo
    /// thread named `tuner`.
    pub fn tuner_step(&self, iteration: u64, objective_ns: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let ring = inner.ring(TUNER_STAGE, 0);
        ring.push(EventKind::TunerStep, inner.clock.now_ns(), iteration, objective_ns, 1);
    }

    /// Snapshot every ring into a raw [`Trace`]. Safe to call while
    /// workers are still recording (torn slots are skipped), but
    /// normally called after the run joined its threads.
    pub fn snapshot(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let stage_names = inner.stages.lock().clone();
        let rings: Vec<Arc<EventRing>> = inner.rings.lock().clone();
        let mut threads = Vec::new();
        let mut dropped_events = 0u64;
        for ring in rings {
            let (events, dropped) = ring.snapshot();
            dropped_events += dropped;
            if events.is_empty() && dropped == 0 {
                continue;
            }
            threads.push(ThreadTrace {
                stage: ring.stage,
                worker: ring.worker,
                dropped,
                events,
            });
        }
        threads.sort_by_key(|t| (t.stage, t.worker));
        Trace { stage_names, threads, dropped_events }
    }

    /// Aggregate the current snapshot into a [`TraceReport`].
    pub fn report(&self) -> TraceReport {
        TraceReport::from_trace(&self.snapshot())
    }
}

/// Per-thread recording handle. All methods are inert on a disabled
/// handle — no clock read, no stores — so instrumented hot paths cost
/// one branch when tracing is off.
#[derive(Clone)]
pub struct WorkerTracer {
    core: Option<(Arc<EventRing>, Arc<Inner>)>,
}

impl std::fmt::Debug for WorkerTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerTracer").field("enabled", &self.is_enabled()).finish()
    }
}

impl WorkerTracer {
    /// The inert handle, equivalent to one from [`Tracer::disabled`].
    pub fn disabled() -> WorkerTracer {
        WorkerTracer { core: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Read the clock (inert handles return `Tick::none()` without a
    /// clock read). Pass the tick back into the `*_since`-style calls.
    #[inline]
    pub fn tick(&self) -> Tick {
        match &self.core {
            Some((_, inner)) => Tick(Some(inner.clock.now_ns())),
            None => Tick::none(),
        }
    }

    #[inline]
    fn push_at(&self, kind: EventKind, item: u64, dur_ns: u64) -> Tick {
        match &self.core {
            Some((ring, inner)) => {
                let now = inner.clock.now_ns();
                ring.push(kind, now, item, dur_ns, 1);
                Tick(Some(now))
            }
            None => Tick::none(),
        }
    }

    /// Record `ItemStart`; returns the start tick for [`Self::item_end`].
    #[inline]
    pub fn item_start(&self, item: u64) -> Tick {
        self.push_at(EventKind::ItemStart, item, 0)
    }

    /// Record `StageBlockedRecv` (waiting since `waited_since`) and
    /// `ItemStart` with a single clock read — the pipeline worker's
    /// receive-then-compute transition. Returns the start tick.
    #[inline]
    pub fn begin_item(&self, item: u64, waited_since: Tick) -> Tick {
        match &self.core {
            Some((ring, inner)) => {
                let now = inner.clock.now_ns();
                let waited = Tick(Some(now)).since(waited_since);
                ring.push(EventKind::StageBlockedRecv, now, item, waited, 1);
                ring.push(EventKind::ItemStart, now, item, 0, 1);
                Tick(Some(now))
            }
            None => Tick::none(),
        }
    }

    /// Record `ItemEnd` with duration measured from `started`; returns
    /// the end tick (reusable as the start of a send wait).
    #[inline]
    pub fn item_end(&self, item: u64, started: Tick) -> Tick {
        self.item_end_n(item, 1, started)
    }

    /// Record one `ItemEnd` that accounts for `count` consecutive stream
    /// elements starting at `item` — the batched pipeline / adaptive
    /// chunk form. One event per batch keeps the hot path amortized
    /// while per-stage item counts still sum to the stream length.
    #[inline]
    pub fn item_end_n(&self, item: u64, count: u64, started: Tick) -> Tick {
        match &self.core {
            Some((ring, inner)) => {
                let now = inner.clock.now_ns();
                ring.push(
                    EventKind::ItemEnd,
                    now,
                    item,
                    Tick(Some(now)).since(started),
                    count.max(1),
                );
                Tick(Some(now))
            }
            None => Tick::none(),
        }
    }

    /// Record `StageBlockedSend` since `since`; returns the now-tick
    /// (reusable as the start of the next receive wait).
    #[inline]
    pub fn blocked_send(&self, item: u64, since: Tick) -> Tick {
        match &self.core {
            Some((ring, inner)) => {
                let now = inner.clock.now_ns();
                ring.push(EventKind::StageBlockedSend, now, item, Tick(Some(now)).since(since), 1);
                Tick(Some(now))
            }
            None => Tick::none(),
        }
    }

    /// Record the worker's idle tail at exit: wall time since `since`
    /// minus `busy_ns` actually spent computing. `item` carries the
    /// number of items the worker processed.
    #[inline]
    pub fn worker_idle(&self, since: Tick, busy_ns: u64, items: u64) {
        if let Some((ring, inner)) = &self.core {
            let now = inner.clock.now_ns();
            let wall = Tick(Some(now)).since(since);
            ring.push(EventKind::WorkerIdle, now, items, wall.saturating_sub(busy_ns), 1);
        }
    }

    /// Record a caught fault on `item`.
    #[inline]
    pub fn fault(&self, item: u64) {
        self.push_at(EventKind::FaultCaught, item, 0);
    }
}

/// Events of one worker ring, as captured.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    pub stage: u16,
    pub worker: u16,
    /// Events overwritten by ring wrap before the snapshot.
    pub dropped: u64,
    pub events: Vec<TraceEvent>,
}

/// A raw snapshot of every ring plus the stage-name table. Feed it to
/// [`TraceReport::from_trace`] for aggregation or to
/// [`export::chrome_trace`] for visualization.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Stage names; index = stage id.
    pub stage_names: Vec<String>,
    /// One entry per non-empty ring, sorted by `(stage, worker)`.
    pub threads: Vec<ThreadTrace>,
    /// Total events lost to ring wrap across all threads.
    pub dropped_events: u64,
}

impl Trace {
    /// Resolve a stage id to its name.
    pub fn stage_name(&self, id: u16) -> &str {
        if id == TUNER_STAGE {
            return TUNER_STAGE_NAME;
        }
        self.stage_names.get(id as usize).map(String::as_str).unwrap_or("?")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let wt = tracer.worker(tracer.stage("a"), 0);
        assert!(!wt.is_enabled());
        let t = wt.item_start(1);
        wt.item_end(1, t);
        wt.begin_item(1, Tick::none());
        wt.blocked_send(1, Tick::none());
        wt.worker_idle(Tick::none(), 0, 0);
        wt.fault(1);
        tracer.tuner_step(1, 5);
        let trace = tracer.snapshot();
        assert!(trace.threads.is_empty());
        assert_eq!(trace.dropped_events, 0);
        assert!(tracer.report().stages.is_empty());
    }

    #[test]
    fn events_record_in_order_with_kinds_and_durations() {
        let tracer = Tracer::deterministic(64);
        let s = tracer.stage("crop");
        let wt = tracer.worker(s, 0);
        let wait = wt.tick();
        let start = wt.begin_item(7, wait);
        let end = wt.item_end(7, start);
        wt.blocked_send(7, end);
        let trace = tracer.snapshot();
        assert_eq!(trace.threads.len(), 1);
        let events = &trace.threads[0].events;
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![
                EventKind::StageBlockedRecv,
                EventKind::ItemStart,
                EventKind::ItemEnd,
                EventKind::StageBlockedSend,
            ]
        );
        assert!(events.iter().all(|e| e.item == 7));
        // Virtual clock: one tick between the recv read and the end read.
        assert_eq!(events[2].dur_ns, VIRTUAL_TICK_NS);
        assert_eq!(events[0].dur_ns, VIRTUAL_TICK_NS);
        // seqnos are gap-free.
        assert_eq!(events.iter().map(|e| e.seqno).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn batched_item_end_carries_the_element_count() {
        let tracer = Tracer::deterministic(64);
        let wt = tracer.worker(tracer.stage("s"), 0);
        let start = wt.item_start(8);
        wt.item_end_n(8, 4, start);
        let start = wt.item_start(12);
        wt.item_end(12, start);
        let trace = tracer.snapshot();
        let counts: Vec<(EventKind, u64)> =
            trace.threads[0].events.iter().map(|e| (e.kind, e.count)).collect();
        assert_eq!(
            counts,
            vec![
                (EventKind::ItemStart, 1),
                (EventKind::ItemEnd, 4),
                (EventKind::ItemStart, 1),
                (EventKind::ItemEnd, 1),
            ]
        );
        // The report counts elements, not events.
        assert_eq!(tracer.report().stages[0].items, 5);
    }

    #[test]
    fn ring_wrap_drops_oldest_and_accounts_for_them() {
        // Satellite: wrap semantics. Capacity 4, 10 events — the 6
        // oldest are overwritten and counted, the 4 newest survive.
        let tracer = Tracer::deterministic(4);
        let wt = tracer.worker(tracer.stage("s"), 0);
        for i in 0..10u64 {
            wt.fault(i);
        }
        let trace = tracer.snapshot();
        assert_eq!(trace.dropped_events, 6);
        assert_eq!(trace.threads[0].dropped, 6);
        let items: Vec<u64> = trace.threads[0].events.iter().map(|e| e.item).collect();
        assert_eq!(items, vec![6, 7, 8, 9], "newest events survive the wrap");
        let report = tracer.report();
        assert_eq!(report.dropped_events, 6);
    }

    #[test]
    fn stage_interner_preserves_registration_order_and_dedups() {
        let tracer = Tracer::enabled();
        let a = tracer.stage("decode");
        let b = tracer.stage("encode");
        let a2 = tracer.stage("decode");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        tracer.worker(a, 0).fault(0);
        tracer.worker(b, 0).fault(0);
        let trace = tracer.snapshot();
        assert_eq!(trace.stage_names, vec!["decode", "encode"]);
        assert_eq!(trace.stage_name(1), "encode");
        assert_eq!(trace.stage_name(TUNER_STAGE), TUNER_STAGE_NAME);
    }

    #[test]
    fn same_worker_registration_reuses_the_ring() {
        let tracer = Tracer::deterministic(64);
        let s = tracer.stage("s");
        let w1 = tracer.worker(s, 0);
        w1.fault(1);
        let w2 = tracer.worker(s, 0);
        w2.fault(2);
        let trace = tracer.snapshot();
        assert_eq!(trace.threads.len(), 1, "one ring per (stage, worker)");
        assert_eq!(trace.threads[0].events.len(), 2);
    }

    #[test]
    fn concurrent_workers_record_without_loss() {
        let tracer = Tracer::enabled();
        let s = tracer.stage("par");
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let wt = tracer.worker(s, w);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let t = wt.item_start(i);
                        wt.item_end(i, t);
                    }
                });
            }
        });
        let trace = tracer.snapshot();
        let events: usize = trace.threads.iter().map(|t| t.events.len()).sum();
        assert_eq!(events, 4 * 1000);
        assert_eq!(trace.dropped_events, 0);
        assert_eq!(trace.threads.len(), 4);
        for t in &trace.threads {
            // Monotonic ticks within one ring.
            assert!(t.events.windows(2).all(|w| w[0].tick_ns <= w[1].tick_ns));
        }
    }

    #[test]
    fn tuner_steps_land_on_the_reserved_stage() {
        let tracer = Tracer::deterministic(16);
        tracer.tuner_step(1, 2_000_000);
        tracer.tuner_step(2, 1_500_000);
        let trace = tracer.snapshot();
        assert_eq!(trace.threads.len(), 1);
        assert_eq!(trace.threads[0].stage, TUNER_STAGE);
        let report = tracer.report();
        assert_eq!(report.tuner_steps, 2);
        assert!(report.stages.is_empty(), "tuner steps are not a pipeline stage");
    }
}
