//! The service proper: single-flight dedup, deadline watchdog, job
//! execution on the thread that submitted it (a TCP connection's lane),
//! the line protocol loop, and the live metrics scrape.

use crate::admission::{Admission, AdmissionConfig};
use crate::cache::{Artifact, CacheConfig, CacheSource, ShardedCache};
use crate::metrics::{ServeMetrics, OPS, STATS_OP};
use crate::protocol::{error_response, parse_request, shed_response, write_ok, Request};
use crate::wire::{Line, LineReader, MAX_LINE_BYTES};
use crate::{job_hash, JobKind};
use patty_json::Json;
use patty_obs::{MetricKind, MetricsRegistry};
use patty_runtime::fault::panic_payload;
use patty_runtime::{CancelToken, Executor, SpawnMode};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a job implementation gets to cooperate with the service:
/// the job's cancel token (the deadline watchdog cancels it when the
/// budget runs out) and the remaining time, for passing into
/// `RunOptions` of any plan the job executes.
pub struct JobCtl {
    cancel: CancelToken,
    deadline: Duration,
    started: Instant,
}

impl JobCtl {
    /// A detached control for direct runner tests.
    pub fn unbounded() -> JobCtl {
        JobCtl {
            cancel: CancelToken::new(),
            deadline: Duration::from_secs(3600),
            started: Instant::now(),
        }
    }

    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Time left in the job's budget (zero when overdrawn).
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_sub(self.started.elapsed())
    }

    /// Cooperative cancellation point: call between phases; an `Err`
    /// means the deadline watchdog (or shutdown) cancelled this job.
    pub fn checkpoint(&self) -> Result<(), String> {
        if self.cancel.is_cancelled() || self.remaining().is_zero() {
            Err("job cancelled: deadline exceeded".to_string())
        } else {
            Ok(())
        }
    }
}

/// Computes one job. Implementations must be panic-tolerant callers:
/// the service catches panics and turns them into error responses,
/// and the admission permit is released either way.
pub trait JobRunner: Send + Sync + 'static {
    fn run(&self, kind: JobKind, source: &str, ctl: &JobCtl) -> Result<Json, String>;
}

impl<F> JobRunner for F
where
    F: Fn(JobKind, &str, &JobCtl) -> Result<Json, String> + Send + Sync + 'static,
{
    fn run(&self, kind: JobKind, source: &str, ctl: &JobCtl) -> Result<Json, String> {
        self(kind, source, ctl)
    }
}

#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub cache: CacheConfig,
    pub admission: AdmissionConfig,
    /// Wall budget per job; the watchdog cancels the job's token past it.
    pub job_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache: CacheConfig::default(),
            admission: AdmissionConfig::default(),
            job_deadline: Duration::from_secs(30),
        }
    }
}

/// The outcome of one submitted job. A result is the cache's own entry,
/// shared, with its wire rendering already made.
#[derive(Clone, Debug)]
pub enum Served {
    /// Served from the artifact cache.
    Hit {
        result: Arc<Artifact>,
        source: CacheSource,
        micros: u64,
    },
    /// Computed fresh (and now cached).
    Computed { result: Arc<Artifact>, micros: u64 },
    /// Coalesced onto an identical in-flight job; shares its result.
    Coalesced { result: Arc<Artifact>, micros: u64 },
    /// Load-shed by admission control.
    Shed { retry_after_ms: u64 },
    /// The job failed; `deadline` distinguishes budget exhaustion.
    Failed {
        error: String,
        deadline: bool,
        micros: u64,
    },
}

impl Served {
    /// The `cached` field of the wire response.
    pub(crate) fn cached_tag(&self) -> &'static str {
        match self {
            Served::Hit { source, .. } => source.as_str(),
            Served::Computed { .. } => "no",
            Served::Coalesced { .. } => "coalesced",
            _ => "-",
        }
    }
}

enum FlightResult {
    Ok(Arc<Artifact>),
    Shed(u64),
    Fail { error: String, deadline: bool },
}

struct Flight {
    slot: Mutex<Option<FlightResult>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, result: FlightResult) {
        *self.slot.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> FlightResult {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(res) = slot.take() {
                // Put a clone back for any other waiter.
                let copy = match &res {
                    FlightResult::Ok(v) => FlightResult::Ok(Arc::clone(v)),
                    FlightResult::Shed(r) => FlightResult::Shed(*r),
                    FlightResult::Fail { error, deadline } => FlightResult::Fail {
                        error: error.clone(),
                        deadline: *deadline,
                    },
                };
                *slot = Some(copy);
                return res;
            }
            slot = self.cv.wait(slot).unwrap();
        }
    }
}

/// Deadline watchdog: one thread cancelling expired job tokens, so a
/// wedged job body cannot hold its admission slot past the budget.
struct WatchdogInner {
    jobs: Mutex<HashMap<u64, (Instant, CancelToken)>>,
    cv: Condvar,
    stop: AtomicBool,
    fired: AtomicU64,
}

struct Watchdog {
    inner: Arc<WatchdogInner>,
    seq: AtomicU64,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Watchdog {
    fn new() -> Watchdog {
        let inner = Arc::new(WatchdogInner {
            jobs: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            fired: AtomicU64::new(0),
        });
        let thread_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("patty-serve-watchdog".into())
            .spawn(move || watchdog_main(&thread_inner))
            .expect("spawn watchdog thread");
        Watchdog {
            inner,
            seq: AtomicU64::new(0),
            handle: Mutex::new(Some(handle)),
        }
    }

    fn register(&self, deadline_at: Instant, token: CancelToken) -> u64 {
        let id = self.seq.fetch_add(1, Ordering::Relaxed);
        self.inner
            .jobs
            .lock()
            .unwrap()
            .insert(id, (deadline_at, token));
        self.inner.cv.notify_all();
        id
    }

    fn unregister(&self, id: u64) {
        self.inner.jobs.lock().unwrap().remove(&id);
    }

    fn fired_total(&self) -> u64 {
        self.inner.fired.load(Ordering::Relaxed)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        if let Some(handle) = self.handle.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

fn watchdog_main(inner: &WatchdogInner) {
    let mut jobs = inner.jobs.lock().unwrap();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let expired: Vec<u64> = jobs
            .iter()
            .filter_map(|(&id, (at, _))| {
                if *at <= now {
                    Some(id)
                } else {
                    next = Some(next.map_or(*at, |n| n.min(*at)));
                    None
                }
            })
            .collect();
        for id in expired {
            if let Some((_, token)) = jobs.remove(&id) {
                token.cancel();
                inner.fired.fetch_add(1, Ordering::Relaxed);
            }
        }
        let wait = next
            .map(|at| at.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(100))
            .min(Duration::from_millis(100));
        let (next_jobs, _) = inner.cv.wait_timeout(jobs, wait).unwrap();
        jobs = next_jobs;
    }
}

pub struct Service<R: JobRunner> {
    runner: R,
    cfg: ServeConfig,
    cache: ShardedCache,
    admission: Admission,
    metrics: ServeMetrics,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    watchdog: Watchdog,
    stop: AtomicBool,
}

fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

impl<R: JobRunner> Service<R> {
    pub fn new(runner: R, cfg: ServeConfig) -> Service<R> {
        Service {
            cache: ShardedCache::new(cfg.cache.clone()),
            admission: Admission::new(cfg.admission.clone()),
            metrics: ServeMetrics::new(),
            inflight: Mutex::new(HashMap::new()),
            watchdog: Watchdog::new(),
            stop: AtomicBool::new(false),
            runner,
            cfg,
        }
    }

    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Deadlines the watchdog has enforced.
    pub fn deadlines_fired(&self) -> u64 {
        self.watchdog.fired_total()
    }

    /// Ask the serve loops to wind down.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    pub fn shutdown_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Submit one job: cache → single-flight → admission → compute.
    pub fn submit(&self, kind: JobKind, source: &str) -> Served {
        let start = Instant::now();
        let op = kind.index();
        self.metrics.bump_job(op);
        let hash = job_hash(kind, source);
        if let Some((result, cache_source)) = self.cache.get(kind, hash) {
            let micros = elapsed_us(start);
            self.metrics.record(op, micros);
            return Served::Hit {
                result,
                source: cache_source,
                micros,
            };
        }

        // Single-flight: exactly one leader computes; identical
        // concurrent requests wait on the leader's flight.
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().unwrap();
            match inflight.get(&hash) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::new());
                    inflight.insert(hash, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            self.metrics.bump_singleflight();
            let micros_of = |s: Instant| elapsed_us(s);
            return match flight.wait() {
                FlightResult::Ok(result) => {
                    let micros = micros_of(start);
                    self.metrics.record(op, micros);
                    Served::Coalesced { result, micros }
                }
                FlightResult::Shed(retry_after_ms) => Served::Shed { retry_after_ms },
                FlightResult::Fail { error, deadline } => Served::Failed {
                    error,
                    deadline,
                    micros: micros_of(start),
                },
            };
        }

        let outcome = self.lead(kind, hash, source, start);
        let flight_result = match &outcome {
            Served::Computed { result, .. } => FlightResult::Ok(Arc::clone(result)),
            Served::Shed { retry_after_ms } => FlightResult::Shed(*retry_after_ms),
            Served::Failed {
                error, deadline, ..
            } => FlightResult::Fail {
                error: error.clone(),
                deadline: *deadline,
            },
            // The leader took the miss path; hits happen before the
            // flight is registered.
            Served::Hit { .. } | Served::Coalesced { .. } => unreachable!(),
        };
        self.inflight.lock().unwrap().remove(&hash);
        flight.fill(flight_result);
        outcome
    }

    fn lead(&self, kind: JobKind, hash: u64, source: &str, start: Instant) -> Served {
        let permit = match self.admission.admit() {
            Ok(p) => p,
            Err(shed) => {
                return Served::Shed {
                    retry_after_ms: shed.retry_after_ms,
                }
            }
        };
        let ctl = JobCtl {
            cancel: CancelToken::new(),
            deadline: self.cfg.job_deadline,
            started: Instant::now(),
        };
        let watch_id = self
            .watchdog
            .register(ctl.started + self.cfg.job_deadline, ctl.cancel.clone());
        let result = self.run_job(kind, source, &ctl);
        self.watchdog.unregister(watch_id);
        let overdrawn = ctl.cancel.is_cancelled() || ctl.remaining().is_zero();
        drop(permit);

        let micros = elapsed_us(start);
        match result {
            Ok(result) => {
                let result = self.cache.insert(kind, hash, result);
                self.metrics.record(kind.index(), micros);
                Served::Computed { result, micros }
            }
            Err(error) => {
                if overdrawn {
                    self.metrics.bump_deadline();
                } else {
                    self.metrics.bump_error();
                }
                Served::Failed {
                    error,
                    deadline: overdrawn,
                    micros,
                }
            }
        }
    }

    /// Run the job body on the calling thread, turning a panic into an
    /// error. Over TCP that thread is the connection's own executor
    /// lane, so a miss starts at once instead of after a hand-off.
    fn run_job(&self, kind: JobKind, source: &str, ctl: &JobCtl) -> Result<Json, String> {
        std::panic::catch_unwind(AssertUnwindSafe(|| self.runner.run(kind, source, ctl)))
            .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_payload(&*payload))))
    }

    /// The live `patty_serve_*` scrape plus the executor's own families.
    pub fn scrape(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let cs = self.cache.stats();
        for kind in JobKind::ALL {
            let labels = [("kind", kind.as_str())];
            let i = kind.index();
            reg.set(
                "patty_serve_cache_hits_total",
                MetricKind::Counter,
                "Jobs served from the in-memory artifact cache.",
                &labels,
                cs.hits[i],
            );
            reg.set(
                "patty_serve_cache_disk_hits_total",
                MetricKind::Counter,
                "Jobs served from the on-disk artifact spill.",
                &labels,
                cs.disk_hits[i],
            );
            reg.set(
                "patty_serve_cache_misses_total",
                MetricKind::Counter,
                "Jobs that required a fresh computation.",
                &labels,
                cs.misses[i],
            );
        }
        reg.set(
            "patty_serve_cache_entries",
            MetricKind::Gauge,
            "Artifacts resident in memory across all shards.",
            &[],
            cs.entries as u64,
        );
        reg.set(
            "patty_serve_cache_evictions_total",
            MetricKind::Counter,
            "LRU evictions across all shards.",
            &[],
            cs.evictions,
        );
        reg.set(
            "patty_serve_cache_inserts_total",
            MetricKind::Counter,
            "Artifacts inserted after a computed job.",
            &[],
            cs.inserts,
        );
        reg.set(
            "patty_serve_cache_spill_errors_total",
            MetricKind::Counter,
            "Failed on-disk spill writes (artifact stays memory-only).",
            &[],
            cs.spill_errors,
        );
        let (running, queued) = self.admission.depth();
        reg.set(
            "patty_serve_running_jobs",
            MetricKind::Gauge,
            "Jobs holding an admission permit right now.",
            &[],
            running as u64,
        );
        reg.set(
            "patty_serve_queue_depth",
            MetricKind::Gauge,
            "Jobs waiting for an admission permit right now.",
            &[],
            queued as u64,
        );
        reg.set(
            "patty_serve_queue_highwater",
            MetricKind::Gauge,
            "Deepest admission queue observed since start.",
            &[],
            self.admission.queue_highwater(),
        );
        reg.set(
            "patty_serve_admitted_total",
            MetricKind::Counter,
            "Jobs granted an admission permit.",
            &[],
            self.admission.admitted_total(),
        );
        reg.set(
            "patty_serve_shed_total",
            MetricKind::Counter,
            "Jobs rejected by admission control with a retry hint.",
            &[],
            self.admission.shed_total(),
        );
        reg.set(
            "patty_serve_singleflight_waits_total",
            MetricKind::Counter,
            "Requests coalesced onto an identical in-flight job.",
            &[],
            self.metrics.singleflight_total(),
        );
        reg.set(
            "patty_serve_job_errors_total",
            MetricKind::Counter,
            "Jobs that failed (panic or language/runtime error).",
            &[],
            self.metrics.errors_total(),
        );
        reg.set(
            "patty_serve_deadline_exceeded_total",
            MetricKind::Counter,
            "Jobs cancelled by the deadline watchdog.",
            &[],
            self.metrics.deadlines_total(),
        );
        for (i, op) in OPS.iter().enumerate() {
            let labels = [("op", *op)];
            reg.set(
                "patty_serve_jobs_total",
                MetricKind::Counter,
                "Requests received, by endpoint.",
                &labels,
                self.metrics.jobs_total(i),
            );
            if let Some(lat) = self.metrics.latency(i) {
                reg.set(
                    "patty_serve_latency_count_total",
                    MetricKind::Counter,
                    "Latency samples recorded, by endpoint.",
                    &labels,
                    lat.count,
                );
                reg.set(
                    "patty_serve_latency_sum_us_total",
                    MetricKind::Counter,
                    "Total request latency in microseconds, by endpoint.",
                    &labels,
                    lat.sum_us,
                );
                for (stat, value) in [
                    ("p50", lat.p50_us),
                    ("p95", lat.p95_us),
                    ("p99", lat.p99_us),
                    ("max", lat.max_us),
                ] {
                    reg.set(
                        "patty_serve_latency_us",
                        MetricKind::Gauge,
                        "Request latency quantiles over the sliding window, by endpoint.",
                        &[("op", op), ("stat", stat)],
                        value,
                    );
                }
            }
        }
        let executor = Executor::global();
        reg.ingest_executor(&executor.stats(), &executor.lane_snapshots());
        reg
    }

    /// Handle one request line; returns the response (no newline) and
    /// whether this was a shutdown request.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let mut out = String::new();
        let shutdown = self.respond(line, &mut out);
        (out, shutdown)
    }

    /// Append the response to one request line to `out`. A cached or
    /// computed result is spliced in as the bytes rendered when it
    /// entered the cache; only the few header fields are formatted here.
    fn respond(&self, line: &str, out: &mut String) -> bool {
        let Request { id, op, source } = match parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                error_response(0, "?", &e, false).render_into(out);
                return false;
            }
        };
        match op.as_str() {
            "stats" => {
                let start = Instant::now();
                self.metrics.bump_job(STATS_OP);
                let families = self.scrape().to_json_value().to_string();
                let micros = elapsed_us(start);
                self.metrics.record(STATS_OP, micros);
                write_ok(out, id, "stats", "live", micros, &families);
            }
            "shutdown" => {
                self.request_shutdown();
                Json::obj()
                    .with("id", Json::Int(id))
                    .with("op", Json::Str("shutdown".into()))
                    .with("status", Json::Str("ok".into()))
                    .render_into(out);
                return true;
            }
            _ => {
                let Some(kind) = JobKind::parse(&op) else {
                    let error = format!(
                        "unknown op {op:?} (expected analyze|tune|faultcheck|trace|stats|shutdown)"
                    );
                    error_response(id, &op, &error, false).render_into(out);
                    return false;
                };
                let Some(source) = source else {
                    error_response(id, &op, "job request missing `source`", false).render_into(out);
                    return false;
                };
                let served = self.submit(kind, &source);
                let cached = served.cached_tag();
                match served {
                    Served::Hit { result, micros, .. }
                    | Served::Computed { result, micros }
                    | Served::Coalesced { result, micros } => {
                        write_ok(out, id, kind.as_str(), cached, micros, result.compact())
                    }
                    Served::Shed { retry_after_ms } => {
                        shed_response(id, &op, retry_after_ms).render_into(out)
                    }
                    Served::Failed {
                        error, deadline, ..
                    } => error_response(id, &op, &error, deadline).render_into(out),
                }
            }
        }
        false
    }

    /// Answer one request line as one frame: the response and its
    /// newline go out in a single `write`, so that on a socket they are
    /// one segment and never wait for the peer's delayed ACK. `frame` is
    /// the connection's reused buffer. Returns whether this was a
    /// shutdown request.
    fn answer<W: Write>(
        &self,
        line: Line<'_>,
        frame: &mut String,
        out: &mut W,
    ) -> io::Result<bool> {
        frame.clear();
        let reject = |frame: &mut String, why: &str| {
            error_response(0, "?", why, false).render_into(frame);
            false
        };
        let shutdown = match line {
            Line::Complete(bytes) => match std::str::from_utf8(bytes.trim_ascii()) {
                Ok("") => return Ok(false),
                Ok(text) => self.respond(text, frame),
                Err(_) => reject(frame, "request line is not valid UTF-8"),
            },
            Line::TooLong => reject(
                frame,
                &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ),
        };
        frame.push('\n');
        out.write_all(frame.as_bytes())?;
        out.flush()?;
        Ok(shutdown)
    }

    /// Serve the line protocol from any reader/writer pair until end of
    /// input or shutdown — the `--stdin` transport, and each TCP
    /// connection. A reader that times out (a socket with a read
    /// timeout) is polled again, which is how an idle connection
    /// notices shutdown; the partial line read so far is kept.
    pub fn serve_lines<Rd: BufRead, W: Write>(&self, reader: Rd, mut out: W) -> io::Result<()> {
        let mut lines = LineReader::new(reader);
        let mut frame = String::new();
        while !self.shutdown_requested() {
            match lines.next_line() {
                Ok(Some(line)) => {
                    if self.answer(line, &mut frame, &mut out)? {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Accept loop: each connection is a resident task on the shared
    /// executor pool. Returns once a `shutdown` op arrives (or
    /// `request_shutdown` is called) and live connections wind down.
    pub fn serve_tcp(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        Executor::global().scope(SpawnMode::Pooled, |scope| -> io::Result<()> {
            loop {
                if self.shutdown_requested() {
                    return Ok(());
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        scope.spawn_resident(move || {
                            let _ = self.serve_conn(stream);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => return Err(e),
                }
            }
        })
    }

    fn serve_conn(&self, stream: TcpStream) -> io::Result<()> {
        configure_conn(&stream)?;
        self.serve_lines(BufReader::new(stream.try_clone()?), stream)
    }
}

/// Socket options of an accepted connection. `TCP_NODELAY`: a response
/// is one small write and must leave at once. The short read timeout
/// lets an idle connection notice shutdown.
fn configure_conn(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_accepted_connection_has_nodelay_and_a_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(
            !accepted.nodelay().unwrap(),
            "the OS default, or this test shows nothing"
        );
        configure_conn(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert!(accepted.read_timeout().unwrap().is_some());
    }
}
