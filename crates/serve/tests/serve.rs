//! Service-level integration tests: cache round-trips, single-flight
//! coalescing, deadline enforcement, load-shed, the line-protocol
//! loopback, a full TCP round-trip with clean shutdown, the wire
//! contract (one write per response, pipelining, lines split anywhere,
//! hostile lines), the byte identity of spliced responses and the spill
//! file's layout.

use patty_json::Json;
use patty_serve::{
    job_hash, ok_response, AdmissionConfig, CacheConfig, JobCtl, JobKind, ServeConfig, Served,
    Service, MAX_LINE_BYTES,
};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A runner that counts invocations and fabricates a JSON artifact.
fn counting_runner(
    calls: Arc<AtomicU64>,
    delay: Duration,
) -> impl Fn(JobKind, &str, &JobCtl) -> Result<Json, String> + Send + Sync + 'static {
    move |kind, source, ctl| {
        calls.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + delay;
        while std::time::Instant::now() < deadline {
            ctl.checkpoint()?;
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Json::obj()
            .with("kind", Json::Str(kind.as_str().into()))
            .with("len", Json::Int(source.len() as i64)))
    }
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        cache: CacheConfig {
            shards: 4,
            capacity: 64,
            spill_dir: None,
        },
        admission: AdmissionConfig {
            max_concurrent: 2,
            queue_limit: 2,
            max_queue_wait: Duration::from_millis(200),
            retry_after: Duration::from_millis(5),
        },
        job_deadline: Duration::from_secs(5),
    }
}

#[test]
fn repeat_job_is_a_cache_hit_and_runs_once() {
    let calls = Arc::new(AtomicU64::new(0));
    let svc = Service::new(counting_runner(Arc::clone(&calls), Duration::ZERO), quick_config());
    let first = svc.submit(JobKind::Analyze, "x = 1");
    assert!(matches!(first, Served::Computed { .. }), "{first:?}");
    let second = svc.submit(JobKind::Analyze, "x = 1");
    match second {
        Served::Hit { result, .. } => {
            assert_eq!(result.get("len").and_then(Json::as_i64), Some(5));
        }
        other => panic!("expected a cache hit, got {other:?}"),
    }
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    // A different kind over the same source is a distinct artifact.
    let tune = svc.submit(JobKind::Tune, "x = 1");
    assert!(matches!(tune, Served::Computed { .. }));
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

#[test]
fn identical_inflight_jobs_coalesce_onto_one_computation() {
    let calls = Arc::new(AtomicU64::new(0));
    let svc = Arc::new(Service::new(
        counting_runner(Arc::clone(&calls), Duration::from_millis(80)),
        quick_config(),
    ));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            svc.submit(JobKind::Trace, "same program")
        }));
    }
    let outcomes: Vec<Served> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let computed = outcomes
        .iter()
        .filter(|o| matches!(o, Served::Computed { .. }))
        .count();
    let coalesced = outcomes
        .iter()
        .filter(|o| matches!(o, Served::Coalesced { .. }))
        .count();
    assert_eq!(computed, 1, "{outcomes:?}");
    assert_eq!(coalesced, 3, "{outcomes:?}");
    assert_eq!(calls.load(Ordering::SeqCst), 1, "single-flight ran the job once");
    assert_eq!(svc.metrics().singleflight_total(), 3);
}

#[test]
fn watchdog_cancels_a_job_past_its_deadline() {
    let mut cfg = quick_config();
    cfg.job_deadline = Duration::from_millis(60);
    // The job never looks at the clock, only at its token: nothing but
    // the watchdog can end it. (A job polling `checkpoint()` may see
    // its budget at zero an instant before the watchdog fires.)
    let svc = Service::new(
        |_: JobKind, _: &str, ctl: &JobCtl| -> Result<Json, String> {
            while !ctl.cancel_token().is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err("cancelled".into())
        },
        cfg,
    );
    let t = std::time::Instant::now();
    let out = svc.submit(JobKind::Faultcheck, "slow");
    assert!(t.elapsed() < Duration::from_secs(5), "deadline did not bite");
    match out {
        Served::Failed { deadline, .. } => assert!(deadline, "expected a deadline failure"),
        other => panic!("expected a deadline failure, got {other:?}"),
    }
    assert_eq!(svc.metrics().deadlines_total(), 1);
    assert!(svc.deadlines_fired() >= 1);
}

#[test]
fn overload_sheds_with_a_retry_hint_instead_of_queueing_unboundedly() {
    let calls = Arc::new(AtomicU64::new(0));
    let mut cfg = quick_config();
    cfg.admission = AdmissionConfig {
        max_concurrent: 1,
        queue_limit: 1,
        max_queue_wait: Duration::from_millis(400),
        retry_after: Duration::from_millis(7),
    };
    let svc = Arc::new(Service::new(
        counting_runner(Arc::clone(&calls), Duration::from_millis(120)),
        cfg,
    ));
    // Distinct sources so single-flight cannot coalesce them.
    let mut handles = Vec::new();
    for i in 0..6 {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            svc.submit(JobKind::Analyze, &format!("program {i}"))
        }));
    }
    let outcomes: Vec<Served> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shed: Vec<u64> = outcomes
        .iter()
        .filter_map(|o| match o {
            Served::Shed { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        })
        .collect();
    assert!(!shed.is_empty(), "expected sheds under 6x overload: {outcomes:?}");
    assert!(shed.iter().all(|&ms| ms >= 7), "retry hints present: {shed:?}");
    assert!(
        outcomes.iter().any(|o| matches!(o, Served::Computed { .. })),
        "admitted work still completes: {outcomes:?}"
    );
    assert!(
        !outcomes.iter().any(|o| matches!(o, Served::Failed { .. })),
        "overload sheds, it never fails a job: {outcomes:?}"
    );
    assert!(svc.admission().queue_highwater() <= 1, "queue stayed bounded");
    assert_eq!(svc.admission().depth(), (0, 0), "all permits released");
}

#[test]
fn a_job_runs_on_the_thread_that_submitted_it() {
    // The default configuration: no test-only switch picks the thread.
    let svc = Service::new(
        |_: JobKind, _: &str, _: &JobCtl| -> Result<Json, String> {
            Ok(Json::Str(format!("{:?}", std::thread::current().id())))
        },
        ServeConfig::default(),
    );
    let caller = format!("{:?}", std::thread::current().id());
    match svc.submit(JobKind::Analyze, "where") {
        Served::Computed { result, .. } => {
            assert_eq!(result.as_str(), Some(caller.as_str()));
        }
        other => panic!("expected a computed result, got {other:?}"),
    }
}

#[test]
fn panicking_job_becomes_an_error_response_and_releases_its_permit() {
    let svc = Service::new(
        |_: JobKind, source: &str, _: &JobCtl| -> Result<Json, String> {
            if source == "boom" {
                panic!("runner exploded");
            }
            Ok(Json::Null)
        },
        quick_config(),
    );
    match svc.submit(JobKind::Analyze, "boom") {
        Served::Failed {
            error, deadline, ..
        } => {
            assert!(error.contains("runner exploded"), "{error}");
            assert!(!deadline);
        }
        other => panic!("expected a failure, got {other:?}"),
    }
    assert_eq!(svc.admission().depth(), (0, 0));
    // The error is not cached: a good job under the same kind works.
    assert!(matches!(
        svc.submit(JobKind::Analyze, "fine"),
        Served::Computed { .. }
    ));
}

#[test]
fn line_loopback_round_trips_jobs_stats_and_shutdown() {
    let calls = Arc::new(AtomicU64::new(0));
    let svc = Service::new(counting_runner(calls, Duration::ZERO), quick_config());
    let input = "\
{\"id\":1,\"op\":\"analyze\",\"source\":\"x = 1\"}\n\
{\"id\":2,\"op\":\"analyze\",\"source\":\"x = 1\"}\n\
{\"id\":3,\"op\":\"nonsense\"}\n\
{\"id\":4,\"op\":\"stats\"}\n\
{\"id\":5,\"op\":\"shutdown\"}\n\
{\"id\":6,\"op\":\"analyze\",\"source\":\"never reached\"}\n";
    let mut out: Vec<u8> = Vec::new();
    svc.serve_lines(BufReader::new(input.as_bytes()), &mut out).unwrap();
    let lines: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| patty_json::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 5, "shutdown stops the loop");
    assert_eq!(lines[0].get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(lines[0].get("cached").and_then(Json::as_str), Some("no"));
    assert_eq!(lines[1].get("cached").and_then(Json::as_str), Some("memory"));
    assert_eq!(lines[2].get("status").and_then(Json::as_str), Some("error"));
    let stats = &lines[3];
    assert_eq!(stats.get("status").and_then(Json::as_str), Some("ok"));
    let families = stats.get("result").unwrap();
    assert!(
        families.get("patty_serve_cache_hits_total").is_some()
            || families
                .as_obj()
                .is_some_and(|o| o.iter().any(|(k, _)| k.starts_with("patty_serve_"))),
        "stats carries patty_serve_* families: {families}"
    );
    assert_eq!(lines[4].get("op").and_then(Json::as_str), Some("shutdown"));
}

#[test]
fn tcp_server_round_trips_and_shuts_down_cleanly() {
    let calls = Arc::new(AtomicU64::new(0));
    let svc = Arc::new(Service::new(counting_runner(calls, Duration::ZERO), quick_config()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.serve_tcp(listener))
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |req: &str| -> Json {
        writeln!(stream, "{req}").unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        patty_json::parse(line.trim()).unwrap()
    };

    let first = ask("{\"id\":1,\"op\":\"trace\",\"source\":\"pipeline here\"}");
    assert_eq!(first.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(first.get("cached").and_then(Json::as_str), Some("no"));
    let warm = ask("{\"id\":2,\"op\":\"trace\",\"source\":\"pipeline here\"}");
    assert_eq!(warm.get("cached").and_then(Json::as_str), Some("memory"));
    let stats = ask("{\"id\":3,\"op\":\"stats\"}");
    assert_eq!(stats.get("op").and_then(Json::as_str), Some("stats"));
    let bye = ask("{\"id\":4,\"op\":\"shutdown\"}");
    assert_eq!(bye.get("status").and_then(Json::as_str), Some("ok"));

    server.join().unwrap().unwrap();
    assert!(svc.shutdown_requested());
}

/// Counts `write` calls and keeps what each carried.
#[derive(Default)]
struct CountingWriter {
    writes: Vec<Vec<u8>>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A reader that hands out its chunks one `read` at a time and times
/// out before each — a socket under `set_read_timeout` whose peer sends
/// a request in several segments.
struct Trickle {
    chunks: Vec<Vec<u8>>,
    next: usize,
    timed_out: bool,
}

impl Trickle {
    fn new(chunks: Vec<Vec<u8>>) -> BufReader<Trickle> {
        BufReader::new(Trickle {
            chunks,
            next: 0,
            timed_out: false,
        })
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !std::mem::replace(&mut self.timed_out, true) {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.timed_out = false;
        let Some(chunk) = self.chunks.get(self.next) else {
            return Ok(0);
        };
        self.next += 1;
        buf[..chunk.len()].copy_from_slice(chunk);
        Ok(chunk.len())
    }
}

fn parsed(bytes: &[u8]) -> Json {
    patty_json::parse(std::str::from_utf8(bytes).unwrap().trim_end()).unwrap()
}

/// Every response — computed, hit, error, stats, shutdown — is handed to
/// the transport as one `write` that ends in its newline. `serve_lines`
/// is the `--stdin` transport and, over the socket, each TCP connection.
#[test]
fn each_response_is_one_write_ending_in_a_newline() {
    let calls = Arc::new(AtomicU64::new(0));
    let svc = Service::new(counting_runner(calls, Duration::ZERO), quick_config());
    let input = "\
{\"id\":1,\"op\":\"tune\",\"source\":\"x = 1\"}\n\
\n\
{\"id\":2,\"op\":\"tune\",\"source\":\"x = 1\"}\r\n\
{\"id\":3,\"op\":\"tune\"}\n\
not json\n\
{\"id\":5,\"op\":\"stats\"}\n\
{\"id\":6,\"op\":\"shutdown\"}\n";
    let mut out = CountingWriter::default();
    svc.serve_lines(input.as_bytes(), &mut out).unwrap();
    assert_eq!(
        out.writes.len(),
        6,
        "one write per answered line, none for the blank one"
    );
    for (write, id) in out.writes.iter().zip([1, 2, 3, 0, 5, 6]) {
        assert_eq!(write.iter().filter(|&&b| b == b'\n').count(), 1);
        assert_eq!(write.last(), Some(&b'\n'));
        assert_eq!(parsed(write).get("id").and_then(Json::as_i64), Some(id));
    }
    assert_eq!(
        parsed(&out.writes[1]).get("cached").and_then(Json::as_str),
        Some("memory")
    );
}

/// A request that arrives in two pieces, cut inside a multi-byte
/// character, with a read timeout between them.
#[test]
fn a_request_split_inside_a_character_is_answered_whole() {
    let calls = Arc::new(AtomicU64::new(0));
    let svc = Service::new(counting_runner(calls, Duration::ZERO), quick_config());
    let source = "s = \"héllo\"";
    let line = format!(
        "{}\n",
        Json::obj()
            .with("id", 9i64)
            .with("op", "analyze")
            .with("source", source)
    );
    let cut = line.find('é').unwrap() + 1;
    assert!(!line.is_char_boundary(cut));
    let (head, tail) = line.as_bytes().split_at(cut);
    let mut out = CountingWriter::default();
    svc.serve_lines(Trickle::new(vec![head.to_vec(), tail.to_vec()]), &mut out)
        .unwrap();
    assert_eq!(out.writes.len(), 1);
    let resp = parsed(&out.writes[0]);
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{resp}"
    );
    let len = resp
        .get("result")
        .and_then(|r| r.get("len"))
        .and_then(Json::as_i64);
    assert_eq!(
        len,
        Some(source.len() as i64),
        "every byte of the source arrived"
    );
}

#[test]
fn hostile_lines_get_structured_errors_and_the_connection_keeps_serving() {
    let calls = Arc::new(AtomicU64::new(0));
    let svc = Service::new(counting_runner(calls, Duration::ZERO), quick_config());
    let mut input = vec![b'{'; 2 * MAX_LINE_BYTES];
    input.extend_from_slice(b"\n{\"id\":1,\"op\":\"analyze\",\"source\":\"a\"}\n");
    input.extend_from_slice(b"{\"id\":2,\"op\":\"analyze\",\"source\":\"\xff\xfe\"}\n");
    input.extend_from_slice(b"{\"id\":3,\"op\":\"analyze\",\"source\":\"a\"}\n");
    // Nesting far past the parser's bound, in a tenth of the line limit.
    input.extend_from_slice(b"{\"op\":\"analyze\",\"source\":");
    input.extend(std::iter::repeat_n(b'[', 100_000));
    input.extend_from_slice(b"\n{\"id\":4,\"op\":\"analyze\",\"source\":\"a\"}\n");
    let mut out = CountingWriter::default();
    svc.serve_lines(&input[..], &mut out).unwrap();
    let resp: Vec<Json> = out.writes.iter().map(|w| parsed(w)).collect();
    assert_eq!(resp.len(), 6);
    let field = |r: &Json, key: &str| r.get(key).and_then(Json::as_str).map(str::to_string);
    assert_eq!(field(&resp[0], "status").as_deref(), Some("error"));
    assert_eq!(
        field(&resp[0], "error"),
        Some(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
    );
    assert_eq!(field(&resp[1], "cached").as_deref(), Some("no"));
    assert_eq!(field(&resp[2], "status").as_deref(), Some("error"));
    assert_eq!(
        field(&resp[2], "error").as_deref(),
        Some("request line is not valid UTF-8")
    );
    assert_eq!(field(&resp[3], "cached").as_deref(), Some("memory"));
    assert_eq!(field(&resp[4], "status").as_deref(), Some("error"));
    // The object is level 1, so the 128th `[` (column 25 + 128) is one
    // level too many.
    assert_eq!(
        field(&resp[4], "error").as_deref(),
        Some("bad request json: JSON error at line 1, column 153: nesting deeper than 128 levels")
    );
    assert_eq!(resp[5].get("id").and_then(Json::as_i64), Some(4));
    assert_eq!(field(&resp[5], "cached").as_deref(), Some("memory"));
}

/// Run `client` against a service on a loopback listener, then shut
/// the service down and join it.
fn with_tcp_service(client: impl FnOnce(TcpStream)) {
    let calls = Arc::new(AtomicU64::new(0));
    let svc = Arc::new(Service::new(counting_runner(calls, Duration::ZERO), quick_config()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.serve_tcp(listener))
    };
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    client(stream);
    svc.request_shutdown();
    server.join().unwrap().unwrap();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    with_tcp_service(|mut stream| {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let batch = "\
{\"id\":11,\"op\":\"trace\",\"source\":\"one\"}\n\
{\"id\":12,\"op\":\"nonsense\"}\n\
{\"id\":13,\"op\":\"trace\",\"source\":\"one\"}\n";
        stream.write_all(batch.as_bytes()).unwrap();
        let mut seen = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp = patty_json::parse(line.trim_end()).unwrap();
            seen.push((
                resp.get("id").and_then(Json::as_i64).unwrap(),
                resp.get("status").and_then(Json::as_str).unwrap().to_string(),
            ));
        }
        let want = [(11, "ok"), (12, "error"), (13, "ok")].map(|(id, s)| (id, s.to_string()));
        assert_eq!(seen, want);
    });
}

/// The same split as above over a real socket: the pause outlasts the
/// server's read timeout, so the first segment is read, and kept, alone.
#[test]
fn a_request_sent_as_two_segments_over_tcp_is_answered_whole() {
    with_tcp_service(|mut stream| {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let line = "{\"id\":21,\"op\":\"analyze\",\"source\":\"naïve\"}\n";
        let cut = line.find('ï').unwrap() + 1;
        stream.write_all(&line.as_bytes()[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        stream.write_all(&line.as_bytes()[cut..]).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let resp = patty_json::parse(resp.trim_end()).unwrap();
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(21), "{resp}");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"), "{resp}");
        let len = resp.get("result").and_then(|r| r.get("len")).and_then(Json::as_i64);
        assert_eq!(len, Some("naïve".len() as i64));
    });
}

/// A result with everything the string writer escapes, and text it
/// must pass through untouched.
fn awkward_artifact(kind: JobKind, source: &str) -> Json {
    Json::obj()
        .with("kind", kind.as_str())
        .with(
            "text",
            "quote \" backslash \\ newline \n control \u{1} tab \t é € 😀",
        )
        .with(
            "key \"\\\n",
            vec![Json::Float(0.5), Json::Null, Json::Int(-1)],
        )
        .with("source", source)
}

/// The response a hit is spliced into equals the one rendered from a
/// tree, byte for byte, for every job kind and from each place a result
/// can come from: computed, memory, disk.
#[test]
fn spliced_responses_equal_the_tree_rendering_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("patty-serve-splice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = quick_config();
    // One slot: the second program evicts the first, whose next
    // request then comes back from the spill.
    cfg.cache = CacheConfig {
        shards: 1,
        capacity: 1,
        spill_dir: Some(dir.clone()),
    };
    let svc = Service::new(
        |kind: JobKind, source: &str, _: &JobCtl| Ok(awkward_artifact(kind, source)),
        cfg,
    );
    let mut id = 0;
    for kind in JobKind::ALL {
        let a = format!("{} a \"é\"", kind.as_str());
        for (source, cached) in [
            (a.as_str(), "no"),
            (&a, "memory"),
            ("b", "no"),
            (&a, "disk"),
        ] {
            id += 1;
            let request = Json::obj()
                .with("id", id)
                .with("op", kind.as_str())
                .with("source", source);
            let (line, shutdown) = svc.handle_line(&request.to_string());
            assert!(!shutdown);
            let resp = patty_json::parse(&line).unwrap();
            assert_eq!(
                resp.get("cached").and_then(Json::as_str),
                Some(cached),
                "{line}"
            );
            let micros = resp.get("micros").and_then(Json::as_i64).unwrap() as u64;
            let tree = ok_response(
                id,
                kind.as_str(),
                cached,
                micros,
                awkward_artifact(kind, source),
            );
            assert_eq!(line, tree.to_string());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `result` bytes of an `ok` response line: its last field.
fn result_bytes(line: &str) -> &str {
    let at = line.find(",\"result\":").expect("an ok response") + ",\"result\":".len();
    line[at..].strip_suffix('}').expect("result is the last field")
}

/// A spill file holds the bytes a response carries as `result`, plus a
/// newline; one an older build wrote pretty-printed is still a disk hit
/// and answers with the same bytes as a fresh computation.
#[test]
fn spill_files_are_the_response_result_and_old_pretty_ones_still_hit() {
    let dir = std::env::temp_dir().join(format!("patty-serve-spill-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spilling = |dir: &std::path::Path| {
        let mut cfg = quick_config();
        cfg.cache.spill_dir = Some(dir.to_path_buf());
        Service::new(
            |kind: JobKind, source: &str, _: &JobCtl| Ok(awkward_artifact(kind, source)),
            cfg,
        )
    };
    let request = |op: JobKind, source: &str| {
        Json::obj().with("id", 1i64).with("op", op.as_str()).with("source", source).to_string()
    };
    let spill_path = |kind: JobKind, source: &str| {
        dir.join(format!("{}-{:016x}.json", kind.as_str(), job_hash(kind, source)))
    };

    // Computed: the file is the response's result and a newline.
    let (line, _) = spilling(&dir).handle_line(&request(JobKind::Analyze, "p"));
    assert!(line.contains("\"cached\":\"no\""), "{line}");
    let spilled = std::fs::read_to_string(spill_path(JobKind::Analyze, "p")).unwrap();
    assert_eq!(spilled, format!("{}\n", result_bytes(&line)));

    // Written pretty by hand: a disk hit, byte for byte what a service
    // without a spill computes.
    let old = awkward_artifact(JobKind::Tune, "q");
    std::fs::write(spill_path(JobKind::Tune, "q"), old.to_string_pretty() + "\n").unwrap();
    let (hit, _) = spilling(&dir).handle_line(&request(JobKind::Tune, "q"));
    assert!(hit.contains("\"cached\":\"disk\""), "{hit}");
    let fresh = Service::new(
        |kind: JobKind, source: &str, _: &JobCtl| Ok(awkward_artifact(kind, source)),
        quick_config(),
    );
    let (computed, _) = fresh.handle_line(&request(JobKind::Tune, "q"));
    assert!(computed.contains("\"cached\":\"no\""), "{computed}");
    assert_eq!(result_bytes(&hit), result_bytes(&computed));
    let micros = patty_json::parse(&hit).unwrap().get("micros").and_then(Json::as_i64).unwrap();
    assert_eq!(hit, ok_response(1, "tune", "disk", micros as u64, old).to_string());
    let _ = std::fs::remove_dir_all(&dir);
}
