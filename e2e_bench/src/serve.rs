//! `serve_hot` and `serve_churn`: the artifact service over loopback TCP,
//! closed loop, one connection per core.
//!
//! The server writes a response body and its newline as two small
//! segments on a socket without `TCP_NODELAY`, so every request waits
//! out one 40 ms delayed-ACK timer. The clients here set `TCP_NODELAY`
//! and send each request with a single `write_all`: the floor that
//! remains is the server's, and it is recorded, not worked around.

use crate::host::{self, Rng};
use crate::trace::{self, Tracer};
use crate::{stats, Outcome, Plan};
use patty_analysis::SemanticModel;
use patty_json::Json;
use patty_serve::{
    job_hash, ok_response, parse_request, AdmissionConfig, CacheConfig, CacheSource, JobKind,
    ServeConfig, Served, Service, ShardedCache,
};
use patty_tool::{analyze_artifact, tune_artifact, Patty, PattyJobRunner};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const OPS: [JobKind; 2] = [JobKind::Analyze, JobKind::Tune];
/// The hot set: these corpus programs × `OPS`, all resident before timing.
const HOT_PROGRAMS: usize = 8;
/// Churn scales this corpus program; fixed, so that the cost of a miss
/// does not depend on the seed, and one only, so that each size class is
/// one distribution: with several bases `op_p95_ms`, which falls in the
/// lower part of the x8 class, sat on the edge between two of them and
/// swung 13 % from run to run.
const CHURN_BASES: [&str; 1] = ["nbody"];
const SCALES: [usize; 4] = [1, 2, 4, 8];
const CHURN_KINDS: [&str; 5] = ["repeat", "new_x1", "new_x2", "new_x4", "new_x8"];
/// One churn request in `NEW_EVERY` carries a never-seen program, and
/// `ANALYZE_OF_10` of ten never-seen programs are sent to `analyze`, the
/// rest to `tune`. Fixed shares in a seeded order rather than coin
/// flips: the cost of a run must not depend on the seed's luck.
const NEW_EVERY: usize = 4;
const ANALYZE_OF_10: usize = 7;
/// A repeat re-references one of the last `HISTORY` requests of its
/// client; the cache holds a quarter of what the clients' windows span,
/// so repeats meet memory hits and disk hits both.
const HISTORY: usize = 64;
const CHURN_CAPACITY: usize = 32;
const CHURN_SHARDS: usize = 4;
/// Never-seen programs each client sends through the service before the
/// timed window, so that it opens on a full cache and a full window.
const PREFILL: usize = 16;
/// Calls per probe of a traced run.
const PROBES: usize = 200;

/// One program the clients may send, with the artifacts a direct call
/// computes for it — the reference every response is held against.
struct Variant {
    name: String,
    scale: usize,
    source: Arc<str>,
    /// Rendered `analyze` and `tune` artifacts, in `OPS` order.
    expect: [String; 2],
}

fn artifact(patty: &Patty, op: JobKind, source: &str) -> Result<Json, String> {
    match op {
        JobKind::Tune => {
            let run = patty.run_automatic(source).map_err(|e| e.to_string())?;
            Ok(tune_artifact(patty, &run))
        }
        _ => analyze_artifact(patty, source).map_err(|e| e.to_string()),
    }
}

/// One generated function with a loop nest. The seed picks its
/// constants, never its length or its trip counts.
fn filler(id: usize, rng: &mut Rng) -> String {
    let mut c = || 100 + rng.below(900);
    let (c0, c2, c3, c4, c5) = (c(), c(), c(), c(), c());
    format!(
        "fn fill_{id:03}(n) {{\n    var acc = {c0};\n    for (var i = 0; i < n; i = i + 1) {{\n        \
         for (var j = 0; j < 5; j = j + 1) {{\n            acc += (i * {c2} + j) % {c3};\n        }}\n        \
         if (acc > {c4}) {{ acc = acc - {c5}; }}\n    }}\n    return acc;\n}}\n"
    )
}

/// `base` grown to `scale` times its size by appending seeded functions.
pub fn scaled_source(base: &str, scale: usize, rng: &mut Rng) -> String {
    let mut source = base.to_string();
    let mut id = 0;
    while source.len() < base.len() * scale {
        source.push_str(&filler(id, rng));
        id += 1;
    }
    source
}

/// A function no call reaches: it changes the program's hash and nothing
/// else, so a tagged program is never-seen yet has its variant's artifacts.
pub fn tagged(source: &str, tag: u64) -> String {
    format!(
        "{source}fn bench_tag() {{ return {}; }}\n",
        100_000_000_000 + tag
    )
}

fn variants(seed: u64, churn: bool) -> Result<Vec<Variant>, String> {
    let patty = Patty::new();
    let programs = patty_corpus::all_programs();
    let rng = Rng::new(seed);
    let mut out = Vec::new();
    let mut push = |name: String, scale: usize, source: String| -> Result<(), String> {
        let reference = if churn {
            tagged(&source, 0)
        } else {
            source.clone()
        };
        let mut expect = [String::new(), String::new()];
        for (slot, op) in expect.iter_mut().zip(OPS) {
            *slot = artifact(&patty, op, &reference)?.to_string();
        }
        out.push(Variant {
            name,
            scale,
            source: source.into(),
            expect,
        });
        Ok(())
    };
    if churn {
        for (b, base) in CHURN_BASES.iter().enumerate() {
            let program = programs
                .iter()
                .find(|p| p.name == *base)
                .ok_or("unknown churn base")?;
            for scale in SCALES {
                let mut rng = rng.fork((b * 16 + scale) as u64);
                push(
                    format!("{base}_x{scale}"),
                    scale,
                    scaled_source(program.source, scale, &mut rng),
                )?;
            }
        }
    } else {
        for p in &programs[..HOT_PROGRAMS] {
            push(p.name.to_string(), 1, p.source.to_string())?;
        }
    }
    Ok(out)
}

struct Server {
    svc: Arc<Service<PattyJobRunner>>,
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    spill: Option<PathBuf>,
}

impl Server {
    fn start(churn: bool) -> Result<Server, String> {
        let spill =
            churn.then(|| crate::scratch_dir().join(format!("spill-{}", std::process::id())));
        if let Some(dir) = &spill {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let cache = if churn {
            CacheConfig {
                shards: CHURN_SHARDS,
                capacity: CHURN_CAPACITY,
                spill_dir: spill.clone(),
            }
        } else {
            CacheConfig {
                spill_dir: None,
                ..CacheConfig::default()
            }
        };
        let cfg = ServeConfig {
            cache,
            admission: AdmissionConfig::default(),
            ..ServeConfig::default()
        };
        let svc = Arc::new(Service::new(PattyJobRunner::new(), cfg));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let thread = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.serve_tcp(listener))
        };
        Ok(Server {
            svc,
            addr,
            thread,
            spill,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.svc.request_shutdown();
        let served = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        if let Some(dir) = &self.spill {
            let _ = std::fs::remove_dir_all(dir);
        }
        served.map_err(|e| format!("serve_tcp: {e}"))
    }
}

/// One request as it was sent and answered; checked after the window
/// closes, so that checking costs the measured process nothing.
struct Exchange {
    kind: usize,
    variant: usize,
    op: usize,
    id: i64,
    ms: f64,
    response: String,
}

/// What a client may re-reference.
#[derive(Clone)]
struct Issued {
    variant: usize,
    op: usize,
    source: Arc<str>,
}

struct Client {
    index: usize,
    out: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: i64,
    rng: Rng,
    history: Vec<Issued>,
    /// The (variant, op) pairs never-seen programs cycle through.
    new_order: Vec<(usize, usize)>,
    new_count: usize,
    sent: usize,
}

impl Client {
    fn connect(
        addr: SocketAddr,
        index: usize,
        seed: u64,
        variants: usize,
    ) -> Result<Client, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        out.set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        out.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(out.try_clone().map_err(|e| format!("try_clone: {e}"))?);
        let mut rng = Rng::new(seed).fork(1000 + index as u64);
        let mut new_order: Vec<(usize, usize)> = (0..variants)
            .flat_map(|v| (0..10).map(move |i| (v, usize::from(i >= ANALYZE_OF_10))))
            .collect();
        rng.shuffle(&mut new_order);
        let sent = rng.below(NEW_EVERY);
        Ok(Client {
            index,
            out,
            reader,
            next_id: 1,
            rng,
            history: Vec::new(),
            new_order,
            new_count: 0,
            sent,
        })
    }

    /// The next never-seen program: the variants in a seeded cycle, so
    /// every scale gets the same share, each under a tag of its own.
    fn fresh(&mut self, variants: &[Variant]) -> Issued {
        let (variant, op) = self.new_order[self.new_count % self.new_order.len()];
        let tag = self.index as u64 * 1_000_000_000 + self.new_count as u64 + 1;
        self.new_count += 1;
        Issued {
            variant,
            op,
            source: tagged(&variants[variant].source, tag).into(),
        }
    }

    fn remember(&mut self, issued: Issued) {
        if self.history.len() == HISTORY {
            self.history.remove(0);
        }
        self.history.push(issued);
    }

    /// One request, one response line, timed from first byte out to
    /// newline in.
    fn exchange(&mut self, kind: usize, issued: &Issued) -> Result<Exchange, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = Json::obj()
            .with("id", id)
            .with("op", OPS[issued.op].as_str())
            .with("source", &*issued.source)
            .to_string();
        line.push('\n');
        let mut response = String::new();
        let t0 = Instant::now();
        self.out
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("read: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(Exchange {
            kind,
            variant: issued.variant,
            op: issued.op,
            id,
            ms,
            response,
        })
    }
}

/// Status `ok`, the right `id` and `op`, and a `result` byte-equal to the
/// directly computed artifact. Returns the `cached` tag.
fn check(x: &Exchange, variants: &[Variant]) -> Result<String, String> {
    let op = OPS[x.op].as_str();
    let head = format!(
        "{{\"id\":{},\"op\":\"{op}\",\"status\":\"ok\",\"cached\":\"",
        x.id
    );
    let tail = format!(",\"result\":{}}}", variants[x.variant].expect[x.op]);
    let line = x.response.trim_end();
    let rest = line.strip_prefix(&head).ok_or_else(|| {
        format!(
            "{op} {}: response starts {:?}",
            variants[x.variant].name,
            &line[..line.len().min(80)]
        )
    })?;
    if !line.ends_with(&tail) {
        return Err(format!(
            "{op} {}: result differs from the direct computation",
            variants[x.variant].name
        ));
    }
    Ok(rest.split('"').next().unwrap_or("").to_string())
}

struct Ready {
    variants: Vec<Variant>,
    server: Server,
    clients: Vec<Client>,
}

/// A hash of everything generated from the seed: the programs, their
/// reference artifacts, and the order each client will send them in.
fn inputs_hash(ready: &Ready) -> u64 {
    let mut h = patty_serve::Fnv::new();
    for v in &ready.variants {
        h.update(v.source.as_bytes());
        h.update(v.expect[0].as_bytes());
        h.update(v.expect[1].as_bytes());
    }
    for c in &ready.clients {
        h.update(format!("{:?}{}", c.new_order, c.sent).as_bytes());
    }
    h.finish()
}

/// Everything before the first timed request: inputs, references, the
/// service, the connections, and a cache in the state the window needs.
fn set_up(plan: &Plan, churn: bool) -> Result<Ready, String> {
    let variants = variants(plan.seed, churn)?;
    let server = Server::start(churn)?;
    let mut clients = (0..host::nproc())
        .map(|i| Client::connect(server.addr, i, plan.seed, variants.len()))
        .collect::<Result<Vec<_>, _>>()?;
    let direct = |issued: &Issued| -> Result<(), String> {
        let expect = &variants[issued.variant].expect[issued.op];
        match server.svc.submit(OPS[issued.op], &issued.source) {
            Served::Computed { result, .. } | Served::Hit { result, .. }
                if result.to_string() == *expect =>
            {
                Ok(())
            }
            other => Err(format!(
                "warm-up of {}: {other:?}",
                variants[issued.variant].name
            )),
        }
    };
    if churn {
        for client in &mut clients {
            for _ in 0..PREFILL {
                let issued = client.fresh(&variants);
                direct(&issued)?;
                client.remember(issued);
            }
        }
    } else {
        for (variant, v) in variants.iter().enumerate() {
            for op in 0..OPS.len() {
                direct(&Issued {
                    variant,
                    op,
                    source: Arc::clone(&v.source),
                })?;
            }
        }
    }
    // A new connection acknowledges at once for its first segments; a
    // few requests over the wire take it to the steady state.
    for client in &mut clients {
        for _ in 0..4 {
            let issued = match client.history.last() {
                Some(last) => last.clone(),
                None => Issued {
                    variant: 0,
                    op: 0,
                    source: Arc::clone(&variants[0].source),
                },
            };
            let x = client.exchange(0, &issued)?;
            check(&x, &variants)?;
        }
    }
    Ok(Ready {
        variants,
        server,
        clients,
    })
}

/// One client's timed window.
fn drive(
    client: &mut Client,
    variants: &[Variant],
    churn: bool,
    deadline: Instant,
    tr: &mut Tracer,
) -> Result<Vec<Exchange>, String> {
    let mut done = Vec::new();
    while Instant::now() < deadline {
        let (kind, issued) = if !churn {
            let pick = client.rng.below(variants.len() * OPS.len());
            let (variant, op) = (pick / OPS.len(), pick % OPS.len());
            (
                pick,
                Issued {
                    variant,
                    op,
                    source: Arc::clone(&variants[variant].source),
                },
            )
        } else if client.sent.is_multiple_of(NEW_EVERY) {
            let issued = client.fresh(variants);
            let scale = variants[issued.variant].scale;
            (
                1 + SCALES.iter().position(|s| *s == scale).unwrap_or(0),
                issued,
            )
        } else {
            (
                0,
                client.history[client.rng.below(client.history.len())].clone(),
            )
        };
        client.sent += 1;
        tr.set_op(done.len() as u64);
        let (x, _) = tr.time("op", |_| client.exchange(kind, &issued));
        done.push(x?);
        if churn {
            client.remember(issued);
        }
    }
    Ok(done)
}

pub fn run(plan: &Plan, churn: bool) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..crate::SETUP_REPEATS {
        let before = match ready.take() {
            Some(r) => {
                let hash = inputs_hash(&r);
                drop(r.clients);
                r.server.stop()?;
                Some(hash)
            }
            None => None,
        };
        let t0 = Instant::now();
        let again = set_up(plan, churn)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        // Determinism: one seed, one set of inputs, however often made.
        if before.is_some_and(|hash| hash != inputs_hash(&again)) {
            return Err("the generated inputs changed between two set-ups with one seed".into());
        }
        ready = Some(again);
    }
    let Ready {
        variants,
        server,
        mut clients,
    } = ready.expect("SETUP_REPEATS is at least one");

    let kinds: Vec<String> = if churn {
        CHURN_KINDS.iter().map(|k| k.to_string()).collect()
    } else {
        variants
            .iter()
            .flat_map(|v| {
                OPS.iter()
                    .map(move |op| format!("{}/{}", op.as_str(), v.name))
            })
            .collect()
    };
    let mut out = Outcome::new(kinds);
    out.setup_s = setup_s;

    let cache0 = server.svc.cache().stats();
    let coalesced0 = server.svc.metrics().singleflight_total();
    let shed0 = server.svc.admission().shed_total();
    let cpu0 = host::usage_self().cpu_s;
    let window = Instant::now();
    let deadline = window + plan.duration;
    let driven: Vec<Result<(Vec<Exchange>, Tracer), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let variants = &variants;
                s.spawn(move || {
                    let mut tr = Tracer::new(plan.traced, epoch);
                    drive(client, variants, churn, deadline, &mut tr).map(|done| (done, tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    out.timed_wall_s = window.elapsed().as_secs_f64();
    out.cpu_s = host::usage_self().cpu_s - cpu0;
    let cache1 = server.svc.cache().stats();
    let coalesced = server.svc.metrics().singleflight_total() - coalesced0;
    let shed = server.svc.admission().shed_total() - shed0;

    let mut tags = std::collections::BTreeMap::<String, u64>::new();
    for client in driven {
        let (done, tr) = client?;
        for x in &done {
            let verdict = check(x, &variants).map(|tag| *tags.entry(tag).or_default() += 1);
            out.record(x.kind, x.ms, verdict);
        }
        if plan.traced {
            out.recorders.push(tr.spans);
        }
    }
    out.note(format!(
        "{} connections; responses by `cached` tag: {tags:?}",
        clients.len()
    ));
    if !churn && tags.keys().any(|t| t != "memory") {
        out.failed += 1;
        out.failures
            .push("serve_hot saw a response that was not a memory hit".into());
    }

    if plan.traced {
        let sum = |a: &[u64; 4]| a.iter().sum::<u64>() as f64;
        let hits = sum(&cache1.hits) - sum(&cache0.hits);
        let disk = sum(&cache1.disk_hits) - sum(&cache0.disk_hits);
        let misses = sum(&cache1.misses) - sum(&cache0.misses);
        let lookups = (hits + disk + misses).max(1.0);
        out.layer("serve.mem_hit_ratio", hits / lookups);
        out.layer("serve.disk_hit_ratio", disk / lookups);
        out.layer(
            "serve.evictions",
            (cache1.evictions - cache0.evictions) as f64,
        );
        out.layer("serve.coalesced", coalesced as f64);
        out.layer("serve.shed", shed as f64);
        let mut tr = Tracer::new(true, epoch);
        probe(&server, &variants, churn, &mut tr, &mut out)?;
        out.recorders.push(tr.spans);
    }
    out.peak_rss_kb = host::usage_self().maxrss_kb;
    drop(clients);
    server.stop()?;
    Ok(out)
}

/// Traced runs only: the calls a request makes inside the service, each
/// made directly and under a span of its own, after the window closed.
fn probe(
    server: &Server,
    variants: &[Variant],
    churn: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let svc = &server.svc;
    let v = &variants[0];
    let kind = OPS[0];
    // A program the cache holds: submit it once more to be sure.
    let source = if churn {
        tagged(&v.source, 0)
    } else {
        v.source.to_string()
    };
    svc.submit(kind, &source);
    let hash = job_hash(kind, &source);
    let request = Json::obj()
        .with("id", 1i64)
        .with("op", kind.as_str())
        .with("source", source.as_str());
    let line = request.to_string();
    let result = patty_json::parse(&v.expect[0]).map_err(|e| format!("reference: {e}"))?;
    let response = ok_response(1, kind.as_str(), "memory", 1, result.clone()).to_string();
    let private = ShardedCache::new(CacheConfig {
        shards: CHURN_SHARDS,
        capacity: CHURN_CAPACITY,
        spill_dir: server.spill.as_ref().map(|d| d.join("probe")),
    });

    tr.set_op(0);
    let mut fresh = 0u64;
    for i in 0..PROBES as u64 {
        tr.time("json.parse", |_| {
            (
                patty_json::parse(&line).ok(),
                patty_json::parse(&response).ok(),
            )
        });
        tr.time("json.render", |_| (request.to_string(), result.to_string()));
        tr.time("serve.decode", |_| parse_request(&line).ok());
        let body = result.clone();
        tr.time("serve.encode", |_| {
            ok_response(1, kind.as_str(), "memory", 1, body).to_string()
        });
        tr.time("serve.cache_get_hit", |_| svc.cache().get(kind, hash));
        tr.time("serve.cache_get_miss", |_| {
            svc.cache().get(kind, hash ^ (i + 1))
        });
        tr.time("serve.cache_insert", |_| private.insert(kind, i, &result));
        tr.time("serve.admit", |_| drop(svc.admission().admit()));
        tr.time("serve.submit_hit", |_| svc.submit(kind, &source));
        tr.time("serve.handle_line_hit", |_| svc.handle_line(&line));
        if churn && i % 10 == 0 {
            fresh += 1;
            let never_seen = tagged(&v.source, 900_000_000_000 + fresh);
            tr.time("serve.submit_miss", |_| svc.submit(kind, &never_seen));
        }
    }
    if churn {
        // The first keys inserted above were evicted long ago and live on
        // in the spill alone.
        for i in 0..(PROBES - CHURN_CAPACITY) as u64 {
            let (got, _) = tr.time("serve.cache_disk_hit", |_| private.get(kind, i));
            if !matches!(got, Some((_, CacheSource::Disk))) {
                return Err("probe: an evicted key did not come back from the spill".into());
            }
        }
        for scale in SCALES {
            for v in variants.iter().filter(|v| v.scale == scale) {
                let (program, _) = tr.time("minilang.parse", |_| patty_minilang::parse(&v.source));
                let program = program.map_err(|e| e.to_string())?;
                tr.time(&format!("analysis.static.x{scale}"), |_| {
                    SemanticModel::build_static(&program)
                });
            }
        }
    }

    let by_name = |name: &str| -> Vec<f64> {
        tr.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let typ_us = |name: &str| {
        let v = by_name(name);
        if v.is_empty() {
            0.0
        } else {
            stats::iqm(&v)
        }
    };
    for name in [
        "serve.decode",
        "serve.encode",
        "serve.cache_get_hit",
        "serve.cache_get_miss",
        "serve.cache_insert",
        "serve.cache_disk_hit",
        "serve.admit",
        "serve.submit_hit",
        "serve.submit_miss",
        "serve.handle_line_hit",
    ] {
        out.layer(&format!("{name}_us"), typ_us(name));
    }
    let mb = (line.len() + response.len()) as f64 / 1e6;
    out.layer("json.parse_mb_per_s", mb / (typ_us("json.parse") / 1e6));
    out.layer("json.render_mb_per_s", mb / (typ_us("json.render") / 1e6));
    let mut wire: Vec<f64> = out.samples.iter().flatten().copied().collect();
    wire.sort_by(f64::total_cmp);
    out.layer(
        "serve.wire_overhead_us",
        stats::percentile(&wire, 0.5) * 1e3 - typ_us("serve.handle_line_hit"),
    );
    if churn {
        let totals = trace::totals(std::slice::from_ref(&tr.spans));
        let mean_ms = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count.max(1) as f64)
        };
        for scale in SCALES {
            out.layer(
                &format!("analysis.static_ms.x{scale}"),
                mean_ms(&format!("analysis.static.x{scale}")),
            );
        }
        let bytes: usize = variants.iter().map(|v| v.source.len()).sum();
        let parse_s = totals
            .get("minilang.parse")
            .map_or(0.0, |t| t.total_ns as f64 / 1e9);
        out.layer("minilang.parse_ms", mean_ms("minilang.parse"));
        out.layer("minilang.parse_mb_per_s", bytes as f64 / 1e6 / parse_s);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_programs_parse_analyze_and_hash_apart() {
        let patty = Patty::new();
        let programs = patty_corpus::all_programs();
        let mut hashes = std::collections::BTreeSet::new();
        for base in CHURN_BASES {
            let program = programs
                .iter()
                .find(|p| p.name == base)
                .expect("churn base in corpus");
            for scale in SCALES {
                let source = scaled_source(program.source, scale, &mut Rng::new(7));
                assert!(source.len() >= program.source.len() * scale);
                patty_minilang::parse(&source).expect("scaled program parses");
                let plain =
                    artifact(&patty, JobKind::Analyze, &tagged(&source, 0)).expect("analyze");
                for tag in [1, 2] {
                    let tagged = tagged(&source, tag);
                    // The tag changes the address, never the artifact.
                    assert_eq!(
                        artifact(&patty, JobKind::Analyze, &tagged).expect("analyze"),
                        plain
                    );
                    assert!(hashes.insert(job_hash(JobKind::Analyze, &tagged)));
                }
            }
        }
    }

    #[test]
    fn generated_inputs_follow_the_seed_and_nothing_else() {
        let base = patty_corpus::all_programs()[3].source;
        let make = |seed| scaled_source(base, 4, &mut Rng::new(seed));
        assert_eq!(make(1), make(1));
        assert_ne!(make(1), make(2));
        // Same size whatever the seed: the cost of a miss must not move with it.
        assert_eq!(make(1).len(), make(2).len());
    }

    #[test]
    fn check_wants_id_op_status_and_the_reference_bytes() {
        let variants = vec![Variant {
            name: "v".into(),
            scale: 1,
            source: "".into(),
            expect: ["{\"k\":1}".into(), "{}".into()],
        }];
        let x = |id, response: &str| Exchange {
            kind: 0,
            variant: 0,
            op: 0,
            id,
            ms: 1.0,
            response: response.to_string(),
        };
        let good = "{\"id\":5,\"op\":\"analyze\",\"status\":\"ok\",\"cached\":\"disk\",\"micros\":9,\"result\":{\"k\":1}}\n";
        assert_eq!(check(&x(5, good), &variants), Ok("disk".to_string()));
        assert!(check(&x(6, good), &variants).is_err());
        assert!(check(&x(5, &good.replace("\"k\":1", "\"k\":2")), &variants).is_err());
        assert!(check(&x(5, &good.replace("\"ok\"", "\"shed\"")), &variants).is_err());
    }
}
