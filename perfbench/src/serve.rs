//! The HTTP workloads, driven closed loop over 2 keep-alive connections:
//!
//! * `serve-hot` — `mqo serve cora`, one uniformly picked node per
//!   request, measured once every node has been served (the cache is hot).
//! * `routed` — `ogbn-products` cut into 2 shards behind `mqo route`,
//!   8 nodes per request picked over the global id space.

use crate::http::{self, classify_op, closed_loop, Conn, Op, Phase, Stop};
use crate::layers::{
    build_stack, replay_count, replay_parse, replay_render, sim, split_for, PROGRAM_SEED,
};
use crate::procs::{self, Proc};
use crate::spans::SpanLog;
use crate::stats::{histogram_quantile, median, Attribution, Latencies, Window};
use crate::{Args, Report};
use mqo_core::{Executor, KhopRandom, LabelStore};
use mqo_data::{dataset, DatasetBundle, DatasetId};
use mqo_graph::NodeId;
use mqo_llm::LanguageModel;
use mqo_serve::{Engine, ServeConfig};
use mqo_shard::{extract_shard, partition, PartitionStrategy, ShardMap};
use serde_json::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of one measured window; a run measures `--seconds` of them
/// and reports the half with the least host steal.
const WINDOW: Duration = Duration::from_secs(1);

/// Closed-loop clients, one keep-alive connection each.
const CONNS: usize = 2;
/// Nodes sampled for the served-vs-in-process label check.
const CHECK_SAMPLE: usize = 200;
/// Requests replayed in process for the engine and flight timings.
const ENGINE_SAMPLE: usize = 4000;
/// `GET /v1/healthz` probes for the HTTP fixed cost.
const HEALTHZ_PROBES: usize = 2000;
/// Warm-up window, and the most windows warm-up may take.
const WARM_WINDOW: Duration = Duration::from_millis(1000);
const WARM_MAX_WINDOWS: usize = 20;
/// Consecutive warm-up windows must agree on throughput within this share.
const WARM_STEADY: f64 = 0.05;

/// Which HTTP workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeHot,
    Routed,
}

impl Kind {
    fn batch(self) -> usize {
        match self {
            Kind::ServeHot => 1,
            Kind::Routed => 8,
        }
    }

    fn dataset(self) -> DatasetId {
        match self {
            Kind::ServeHot => DatasetId::Cora,
            Kind::Routed => DatasetId::OgbnProducts,
        }
    }

    fn setups(self) -> usize {
        match self {
            Kind::ServeHot => 5,
            Kind::Routed => 3,
        }
    }
}

/// `splitmix64`: the benchmark's own stream of node picks.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The nodes of request `k` in stream `stream`: a function of the seed,
/// the stream and `k` only.
fn picks(seed: u64, stream: u64, k: usize, batch: usize, nodes: u32) -> Vec<u32> {
    let base = mix(seed ^ mix(stream) ^ mix(k as u64));
    (0..batch as u64).map(|i| (mix(base ^ i) % u64::from(nodes)) as u32).collect()
}

/// Index offsets that keep the phases' request streams apart.
const WARM_STREAM: u64 = 1;
const MEASURE_STREAM: u64 = 2;
const TRACED_STREAM: u64 = 3;
const DIRECT_STREAM: u64 = 4;
const CHECK_STREAM: u64 = 5;

/// The processes of one workload; dropping it stops them all.
struct Cluster {
    /// Router first when there is one, then the workers.
    procs: Vec<Proc>,
    /// Where clients send classify traffic.
    front: SocketAddr,
    /// The serving processes (one, or one per shard).
    workers: Vec<SocketAddr>,
    map: Option<ShardMap>,
    nodes: u32,
}

impl Cluster {
    fn start(kind: Kind, args: &Args, dir: &std::path::Path) -> Result<Cluster, String> {
        let mqo = &args.mqo;
        match kind {
            Kind::ServeHot => {
                let name = kind.dataset().name();
                let p = Proc::start(mqo, dir, "serve", &["serve", name])?;
                let nodes =
                    stats(p.addr)?["nodes"].as_u64().ok_or("stats lack 'nodes'")? as u32;
                Ok(Cluster {
                    front: p.addr,
                    workers: vec![p.addr],
                    procs: vec![p],
                    map: None,
                    nodes,
                })
            }
            Kind::Routed => {
                let part = dir.join("part");
                let part_s = part.to_str().ok_or("non-UTF-8 path")?;
                procs::run_to_end(
                    mqo,
                    dir,
                    "partition",
                    &["partition", "ogbn-products", "--shards", "2", "--out-dir", part_s],
                )?;
                let map_path = part.join("shard-map.bin");
                let map_s = map_path.to_str().ok_or("non-UTF-8 path")?;
                let map = ShardMap::load(&map_path).map_err(|e| format!("shard map: {e}"))?;
                let mut workers = Vec::new();
                for s in 0..2u32 {
                    let bundle = part.join(format!("shard-{s}.bin"));
                    let id = s.to_string();
                    workers.push(Proc::start(
                        mqo,
                        dir,
                        &format!("worker-{s}"),
                        &[
                            "serve",
                            bundle.to_str().ok_or("non-UTF-8 path")?,
                            "--shard-id",
                            &id,
                            "--shard-map",
                            map_s,
                        ],
                    )?);
                }
                let addrs: Vec<String> = workers.iter().map(|w| w.addr.to_string()).collect();
                let router = Proc::start(
                    mqo,
                    dir,
                    "router",
                    &["route", map_s, "--workers", &addrs.join(",")],
                )?;
                let front = router.addr;
                let worker_addrs = workers.iter().map(|w| w.addr).collect();
                let mut procs = vec![router];
                procs.extend(workers);
                let nodes = map.num_nodes();
                Ok(Cluster { procs, front, workers: worker_addrs, map: Some(map), nodes })
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().map(Proc::peak_rss_mb).sum()
    }

    fn cpu_seconds(&self) -> f64 {
        self.procs.iter().map(Proc::cpu_seconds).sum()
    }
}

fn stats(addr: SocketAddr) -> Result<Value, String> {
    match http::get(addr, "/v1/stats") {
        Ok((200, body)) => {
            serde_json::from_str(body.trim()).map_err(|e| format!("stats JSON: {e}"))
        }
        Ok((status, _)) => Err(format!("GET /v1/stats on {addr} answered {status}")),
        Err(e) => Err(format!("GET /v1/stats on {addr}: {e}")),
    }
}

/// Counters summed over the serving processes.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    queries: u64,
    tokens_billed: u64,
    tokens_saved: u64,
    model_requests: u64,
    hits: u64,
    misses: u64,
    /// Entries pushed out of the caches: every miss inserts one entry,
    /// and a cache holds at most its capacity.
    evictions: u64,
    /// The emptiest worker's misses over its cache capacity.
    min_fill: f64,
}

impl Counters {
    fn read(workers: &[SocketAddr]) -> Result<Counters, String> {
        let mut c = Counters { min_fill: f64::INFINITY, ..Counters::default() };
        for &w in workers {
            let s = stats(w)?;
            let n = |v: &Value| v.as_u64().unwrap_or(0);
            c.queries += n(&s["queries"]);
            c.tokens_billed += n(&s["tokens_billed"]);
            c.model_requests += n(&s["requests_sent"]);
            c.tokens_saved += n(&s["cache"]["tokens_saved"]);
            c.hits += n(&s["cache"]["hits"]);
            c.misses += n(&s["cache"]["misses"]);
            let (misses, cap) = (n(&s["cache"]["misses"]), n(&s["cache"]["capacity"]));
            c.evictions += misses.saturating_sub(cap);
            c.min_fill = c.min_fill.min(misses as f64 / cap.max(1) as f64);
        }
        Ok(c)
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            queries: self.queries - before.queries,
            tokens_billed: self.tokens_billed - before.tokens_billed,
            tokens_saved: self.tokens_saved - before.tokens_saved,
            model_requests: self.model_requests - before.model_requests,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            ..self
        }
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// `mqo_server_request_micros{route=...}` for one route, summed over
/// tenants and serving processes.
#[derive(Debug, Clone, Default)]
struct RouteHistogram {
    /// `(upper bound µs, cumulative count)`, increasing.
    buckets: Vec<(f64, u64)>,
    sum_us: f64,
    count: u64,
}

impl RouteHistogram {
    fn scrape(workers: &[SocketAddr], route: &str) -> Result<RouteHistogram, String> {
        let label = format!("route=\"{route}\"");
        let mut buckets: std::collections::BTreeMap<u64, (f64, u64)> = Default::default();
        let mut h = RouteHistogram::default();
        for &w in workers {
            let body = match http::get(w, "/metrics") {
                Ok((200, b)) => b,
                other => return Err(format!("GET /metrics on {w}: {other:?}")),
            };
            for line in body.lines() {
                let Some(rest) = line.strip_prefix("mqo_server_request_micros_") else {
                    continue;
                };
                let Some((head, value)) = rest.rsplit_once(' ') else { continue };
                if !head.contains(&label) {
                    continue;
                }
                let value: f64 = value.trim().parse().unwrap_or(0.0);
                if head.starts_with("sum{") {
                    h.sum_us += value;
                } else if head.starts_with("count{") {
                    h.count += value as u64;
                } else if let Some(le) =
                    head.split("le=\"").nth(1).and_then(|s| s.split('"').next())
                {
                    let le =
                        if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(0.0) };
                    buckets.entry(le.to_bits()).or_insert((le, 0)).1 += value as u64;
                }
            }
        }
        h.buckets = buckets.into_values().collect();
        h.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(h)
    }

    fn since(&self, before: &RouteHistogram) -> RouteHistogram {
        let buckets = self
            .buckets
            .iter()
            .map(|&(le, n)| {
                let b = before.buckets.iter().find(|x| x.0 == le).map_or(0, |x| x.1);
                (le, n - b)
            })
            .collect();
        RouteHistogram {
            buckets,
            sum_us: self.sum_us - before.sum_us,
            count: self.count - before.count,
        }
    }

    fn mean_us(&self) -> f64 {
        self.sum_us / self.count.max(1) as f64
    }
}

/// Closed-loop classify traffic on stream `stream`, from request `first`,
/// until `stop`.
fn drive(
    c: &Cluster,
    args: &Args,
    kind: Kind,
    stream: u64,
    first: usize,
    stop: Stop,
    log: Option<&SpanLog>,
) -> Phase {
    let (seed, nodes, batch) = (args.seed, c.nodes, kind.batch());
    closed_loop(
        CONNS,
        first,
        stop,
        || Conn::new(c.front),
        |k, conn| {
            let asked = picks(seed, stream, k, batch, nodes);
            let _span = log.map(|l| l.enter("http.classify"));
            classify_op(conn, &asked)
        },
    )
}

/// Each request's per-shard sub-batches sent straight to the workers, one
/// after another; the operation's latency is their sum.
fn drive_direct(c: &Cluster, args: &Args, map: &ShardMap, stop: Stop, log: &SpanLog) -> Phase {
    let (seed, nodes) = (args.seed, c.nodes);
    closed_loop(
        CONNS,
        0,
        stop,
        || c.workers.iter().map(|&w| Conn::new(w)).collect::<Vec<_>>(),
        |k, conns| {
            let asked = picks(seed, DIRECT_STREAM, k, Kind::Routed.batch(), nodes);
            let _span = log.enter("shard.direct");
            let mut order: Vec<u32> = Vec::new();
            for &n in &asked {
                let s = map.owner(n);
                if !order.contains(&s) {
                    order.push(s);
                }
            }
            let mut total = Op {
                sent: Instant::now(),
                landed: Instant::now(),
                latency: Some(Duration::ZERO),
                refused: false,
                queries: 0,
                correct: 0,
                check: None,
            };
            for s in order {
                let sub: Vec<u32> =
                    asked.iter().copied().filter(|&n| map.owner(n) == s).collect();
                let _sub = log.enter("shard.upstream");
                let op = classify_op(&mut conns[s as usize], &sub);
                total.landed = op.landed;
                total.queries += op.queries;
                total.correct += op.correct;
                total.refused |= op.refused;
                total.latency = total.latency.zip(op.latency).map(|(a, b)| a + b);
                if op.check.is_some() {
                    total.check = op.check;
                }
            }
            total
        },
    )
}

/// Warm up until the stated condition holds. `serve-hot`: every node
/// served once. Routed workloads: every cache full and two consecutive
/// one-second windows within 5% on throughput.
fn warm_up(c: &Cluster, args: &Args, kind: Kind) -> Result<(Phase, String), String> {
    if kind == Kind::ServeHot {
        let mut order: Vec<u32> = (0..c.nodes).collect();
        for i in (1..order.len()).rev() {
            let j = (mix(args.seed ^ mix(WARM_STREAM) ^ i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let phase = closed_loop(
            CONNS,
            0,
            Stop::Count(order.len()),
            || Conn::new(c.front),
            |k, conn| classify_op(conn, &[order[k]]),
        );
        let cond = match phase.failed {
            0 => format!("every one of {} nodes served once", c.nodes),
            n => format!("all {} nodes sent once, {n} not served", c.nodes),
        };
        return Ok((phase, cond));
    }
    let mut total = Phase::default();
    let mut last: Option<f64> = None;
    let mut offset = 0usize;
    for window in 1..=WARM_MAX_WINDOWS {
        let stop = Stop::At(Instant::now() + WARM_WINDOW);
        let (seed, nodes, batch) = (args.seed, c.nodes, kind.batch());
        let phase = closed_loop(
            CONNS,
            offset,
            stop,
            || Conn::new(c.front),
            |k, conn| classify_op(conn, &picks(seed, WARM_STREAM, k, batch, nodes)),
        );
        offset += phase.attempted as usize + CONNS;
        let rps = phase.ops_per_s();
        total.absorb(phase);
        let full = Counters::read(&c.workers)?.min_fill >= 1.0;
        let steady = last.is_some_and(|l| (rps - l).abs() / l < WARM_STEADY);
        if full && steady {
            return Ok((total, format!("caches full and throughput steady after {window} s")));
        }
        last = Some(rps);
    }
    Ok((total, format!("warm-up cap of {WARM_MAX_WINDOWS} s reached before steady")))
}

/// The served labels of a seeded node sample must equal those of an
/// in-process `Engine::process` built with the same `ServeConfig`.
fn check_labels(c: &Cluster, args: &Args, engine: &Engine) -> Result<(), String> {
    let mut conn = Conn::new(c.front);
    for i in 0..CHECK_SAMPLE {
        let node = picks(args.seed, CHECK_STREAM, i, 1, c.nodes)[0];
        let status = conn.request("POST", "/v1/classify", &http::classify_body(&[node]));
        let served = match status {
            Ok(200) => http::check_records(&[node], conn.body())?.predicted[0],
            other => return Err(format!("label check request for node {node}: {other:?}")),
        };
        let local = engine.process(&[NodeId(node)], "bench").records[0].predicted.0;
        if u32::from(local) != served {
            return Err(format!(
                "node {node}: served label {served}, in-process label {local}"
            ));
        }
    }
    Ok(())
}

/// Build the in-process engine `mqo serve` would build.
fn local_engine(bundle: DatasetBundle) -> Result<Engine, String> {
    Engine::new(bundle, ServeConfig::default())
}

/// Times the events a flight-recorder collector receives, as the server
/// tees them beside the engine's own fanout.
struct TimedRecorder {
    inner: mqo_obs::Recorder,
    ns: std::sync::atomic::AtomicU64,
}

impl mqo_obs::EventSink for TimedRecorder {
    fn emit(&self, event: &mqo_obs::Event) {
        let t = Instant::now();
        self.inner.emit(event);
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Mean µs of `Engine::process`, and of the flight-recorder collection
/// the server adds per request (collecting the events, then rebuilding
/// the span tree), over `batches` after one warm pass over `warm`.
/// Batches alternate between the two so both see the same cache state.
fn engine_timings(engine: &Engine, warm: &[Vec<u32>], batches: &[Vec<u32>]) -> (f64, f64) {
    let ids = |b: &Vec<u32>| b.iter().map(|&n| NodeId(n)).collect::<Vec<_>>();
    for b in warm {
        std::hint::black_box(engine.process(&ids(b), "bench"));
    }
    let (mut plain, mut flight) = (Vec::new(), Vec::new());
    for (i, b) in batches.iter().enumerate() {
        let nodes = ids(b);
        if i % 2 == 0 {
            let t = Instant::now();
            std::hint::black_box(engine.process(&nodes, "bench"));
            plain.push(t.elapsed().as_secs_f64() * 1e6);
        } else {
            let rec = TimedRecorder {
                inner: mqo_obs::Recorder::with_capacity(4096),
                ns: Default::default(),
            };
            std::hint::black_box(engine.process_traced(&nodes, "bench", "", Some(&rec)));
            let t = Instant::now();
            std::hint::black_box(mqo_obs::spans_from_events(&rec.inner.events()));
            flight.push((t.elapsed().as_nanos() as u64 + rec.ns.into_inner()) as f64 * 1e-3);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&plain), mean(&flight))
}

/// `GET /v1/healthz` over one held connection: client round trip, p50
/// and mean µs.
fn healthz_us(addr: SocketAddr) -> Result<(f64, f64), String> {
    let mut conn = Conn::new(addr);
    let mut lat = Latencies::default();
    for _ in 0..HEALTHZ_PROBES {
        let t = Instant::now();
        match conn.request("GET", "/v1/healthz", "") {
            Ok(200) => lat.push_ms(t.elapsed().as_secs_f64() * 1e3),
            other => return Err(format!("healthz probe: {other:?}")),
        }
    }
    Ok((lat.percentile(50.0).unwrap_or(0.0) * 1e3, lat.mean_ms() * 1e3))
}

fn generator_lines(report: &mut Report, phase: &Phase) {
    report.lines.push(format!(
        "generator       : {:.2} µs CPU per request, p50 gap response→next send {:.1} µs",
        phase.gen_cpu.as_secs_f64() * 1e6 / phase.attempted.max(1) as f64,
        crate::stats::median(&phase.gaps_us)
    ));
}

pub fn run(args: &Args, kind: Kind) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = procs::scratch(&args.out, args.workload.as_str())?;

    let mut setup_times = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for _ in 0..kind.setups() {
        drop(cluster.take());
        let t0 = Instant::now();
        let c = Cluster::start(kind, args, &dir)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let c = cluster.expect("at least one set-up");
    let setup_s = median(&setup_times);

    let (warm, condition) = warm_up(&c, args, kind)?;
    report
        .lines
        .push(format!("warm-up         : {} requests; ended when {condition}", warm.attempted));
    let mut phases = warm;

    let seconds = Duration::from_secs(args.seconds);
    let before = Counters::read(&c.workers)?;
    if !args.trace {
        let mut windows = Vec::new();
        let mut phase = Phase::default();
        let mut next = 0;
        for _ in 0..args.seconds {
            let (cpu0, steal0) = (c.cpu_seconds(), procs::host_steal());
            let stop = Stop::At(Instant::now() + WINDOW);
            let w = drive(&c, args, kind, MEASURE_STREAM, next, stop, None);
            next += w.attempted as usize + CONNS;
            windows.push(Window {
                answered: w.attempted - w.failed,
                queries: w.queries,
                lat: w.lat.clone(),
                secs: w.wall.as_secs_f64(),
                cpu_s: c.cpu_seconds() - cpu0,
                steal: procs::steal_share(steal0, procs::host_steal()),
            });
            phase.absorb(w);
        }
        let delta = Counters::read(&c.workers)?.since(before);
        if kind == Kind::ServeHot {
            check_labels(
                &c,
                args,
                &local_engine(dataset(kind.dataset(), None, PROGRAM_SEED))?,
            )?;
        }
        report.metric("setup_s", setup_s);
        report.rate_metrics(windows)?;
        report.metric(
            "tokens_per_query",
            (delta.tokens_billed + delta.tokens_saved) as f64 / delta.queries.max(1) as f64,
        );
        report.metric("accuracy", phase.correct as f64 / phase.queries.max(1) as f64);
        report.metric("peak_rss_mb", c.peak_rss_mb());
        report.lines.push(format!(
            "served          : {} requests in {:.2} s, cache hit ratio {:.3}",
            phase.attempted,
            phase.wall.as_secs_f64(),
            delta.hit_ratio()
        ));
        generator_lines(&mut report, &phase);
        phases.absorb(phase);
        report.finish_phase(&phases);
        return Ok(report);
    }

    // Traced run: an untraced window, a traced window with server-side
    // histograms scraped around it, and for routed traffic a window sent
    // straight to the workers.
    let windows = if c.map.is_some() { 3 } else { 2 };
    let each = seconds / windows;
    let plain = drive(&c, args, kind, MEASURE_STREAM, 0, Stop::At(Instant::now() + each), None);
    let log = Arc::new(SpanLog::new(true));
    let hist0 = RouteHistogram::scrape(&c.workers, "/v1/classify")?;
    let mid = Counters::read(&c.workers)?;
    let traced =
        drive(&c, args, kind, TRACED_STREAM, 0, Stop::At(Instant::now() + each), Some(&log));
    let delta = Counters::read(&c.workers)?.since(mid);
    let hist1 = RouteHistogram::scrape(&c.workers, "/v1/classify")?;
    let classify = hist1.since(&hist0);
    let classify_us = histogram_quantile(&classify.buckets, 0.5).unwrap_or(0.0);
    // Straight to the workers: the per-request sum of sub-batch latencies,
    // and the workers' handler time per request from their histograms.
    let direct = match &c.map {
        Some(map) => {
            let d = drive_direct(&c, args, map, Stop::At(Instant::now() + each), &log);
            let handled = RouteHistogram::scrape(&c.workers, "/v1/classify")?.since(&hist1);
            let handler_ms = handled.sum_us * 1e-3 / d.attempted.max(1) as f64;
            Some((d, handler_ms))
        }
        None => None,
    };
    let healthz0 = RouteHistogram::scrape(&[c.front], "/v1/healthz")?;
    let (healthz_p50, healthz_mean) = healthz_us(c.front)?;
    let healthz_server =
        RouteHistogram::scrape(&[c.front], "/v1/healthz")?.since(&healthz0).mean_us();
    let peak = c.peak_rss_mb();
    let total = Counters::read(&c.workers)?;

    // In-process layers over the same dataset.
    let t = Instant::now();
    let bundle = dataset(kind.dataset(), None, PROGRAM_SEED);
    let generate_s = t.elapsed().as_secs_f64();
    let (mut partition_s, mut cut_ratio, mut mixed) = (0.0, 0.0, 0.0);
    let engine = match &c.map {
        Some(map) => {
            let t = Instant::now();
            let local =
                partition(bundle.tag.graph(), 2, PROGRAM_SEED, PartitionStrategy::EdgeCut);
            let shards: Vec<_> = (0..2).map(|s| extract_shard(&bundle, &local, s)).collect();
            partition_s = t.elapsed().as_secs_f64();
            if &local != map {
                return Err("in-process partition differs from the served shard map".into());
            }
            cut_ratio = local.total_cut() as f64 / bundle.tag.num_edges().max(1) as f64;
            let traced_requests = traced.attempted as usize;
            let spans_many = (0..traced_requests)
                .filter(|&k| {
                    let p = picks(args.seed, TRACED_STREAM, k, kind.batch(), c.nodes);
                    p.iter().any(|&n| map.owner(n) != map.owner(p[0]))
                })
                .count();
            mixed = spans_many as f64 / traced_requests.max(1) as f64;
            let shard0 = shards.into_iter().next().expect("two shards");
            Engine::new_sharded(shard0, local, ServeConfig::default())?
        }
        None => {
            let engine = local_engine(bundle.clone())?;
            check_labels(&c, args, &engine)?;
            engine
        }
    };
    let batches = |stream: u64, n: usize| -> Vec<Vec<u32>> {
        (0..n)
            .map(|k| {
                let p = picks(args.seed, stream, k, kind.batch(), c.nodes);
                match &c.map {
                    Some(map) => p.into_iter().filter(|&v| map.owner(v) == 0).collect(),
                    None => p,
                }
            })
            .filter(|b: &Vec<u32>| !b.is_empty())
            .collect()
    };
    let warm_batches = if kind == Kind::ServeHot {
        (0..c.nodes).map(|v| vec![v]).collect()
    } else {
        batches(WARM_STREAM, ENGINE_SAMPLE)
    };
    let (process_us, collect_us) =
        engine_timings(&engine, &warm_batches, &batches(TRACED_STREAM, ENGINE_SAMPLE));

    let split = split_for(&bundle, ServeConfig::default().split_queries, PROGRAM_SEED)?;
    let labels = LabelStore::from_split(&bundle.tag, &split);
    let predictor = KhopRandom::new(1, bundle.tag.num_nodes());
    let stack = build_stack(sim(&bundle), bundle.tag.class_names().to_vec());
    let m = if kind == Kind::Routed { 10 } else { 4 };
    let exec = Executor::new(&bundle.tag, &stack, m, PROGRAM_SEED);
    let sample: Vec<NodeId> = (0..crate::layers::RENDER_SAMPLE)
        .map(|k| {
            NodeId(picks(args.seed, TRACED_STREAM, k, 1, bundle.tag.num_nodes() as u32)[0])
        })
        .collect();
    let render = replay_render(&exec, &predictor, &labels, &sample);
    let count_us = replay_count(&render.prompts);
    let model = sim(&bundle);
    let completions: Vec<String> = render
        .prompts
        .iter()
        .take(500)
        .filter_map(|p| model.complete(p).ok().map(|c| c.text))
        .collect();
    let parse_us = replay_parse(&completions, &bundle.tag);

    let mut traced_lat = traced.lat.clone();
    let mut plain_lat = plain.lat.clone();
    let p50_ms = traced_lat.percentile(50.0).unwrap_or(0.0);
    let plain_p50 = plain_lat.percentile(50.0).unwrap_or(0.0);
    // Attribution is in means, so the parts can add up.
    let whole_ms = traced.lat.mean_ms();
    let (upstream_ms, router_ms, attribution) = match &direct {
        Some((d, handler_ms)) => {
            let up = d.lat.clone().percentile(50.0).unwrap_or(0.0);
            let a = Attribution {
                whole: whole_ms,
                parts: vec![
                    ("shard.router", whole_ms - d.lat.mean_ms()),
                    ("serve.server", *handler_ms),
                ],
            };
            (up, p50_ms - up, a)
        }
        None => {
            let server_us = classify.mean_us();
            let a = Attribution {
                whole: whole_ms * 1e3,
                parts: vec![
                    ("obs.httpd", healthz_mean - healthz_server),
                    ("serve.server", server_us - process_us - collect_us),
                    ("serve.engine", process_us),
                    ("obs.flight", collect_us),
                ],
            };
            (0.0, 0.0, a)
        }
    };

    report.metric("data.generate_s", generate_s);
    report.metric("core.inadequacy.build_s", 0.0);
    report.metric("core.pruning.pruned_share", 0.0);
    report.metric("core.sched.rounds", 0.0);
    report.metric("core.sched.llm_busy_share", 0.0);
    report.metric("core.predictor.calls", delta.queries as f64);
    report.metric("core.predictor.us", render.predictor_us);
    report.metric("llm.prompt.render_us", render.render_us);
    report.metric("token.count_us", count_us);
    report.metric("llm.parse_us", parse_us);
    report.metric("llm.stack.calls", delta.queries as f64);
    report.metric("llm.stack.busy_s", 0.0);
    report.metric("llm.model.calls", delta.model_requests as f64);
    report.metric("llm.model.busy_s", 0.0);
    report.metric(
        "llm.model.calls_per_query",
        delta.model_requests as f64 / delta.queries.max(1) as f64,
    );
    report.metric("llm.stack.overhead_s", 0.0);
    report.metric("cache.hit_ratio", delta.hit_ratio());
    report.metric("cache.evictions", total.evictions as f64);
    report.metric("obs.httpd.healthz_us", healthz_p50);
    report.metric("serve.server.classify_us", classify_us);
    report.metric("serve.engine.process_us", process_us);
    report.metric("obs.flight.collect_us", collect_us);
    report.metric("shard.partition_s", partition_s);
    report.metric("shard.cut_edge_ratio", cut_ratio);
    report.metric("shard.mixed_ratio", mixed);
    report.metric("shard.upstream_sum_ms", upstream_ms);
    report.metric("shard.router.self_ms", router_ms);
    report.metric("unattributed_share", attribution.unattributed_share());
    report.metric("tracing_overhead_share", p50_ms / plain_p50 - 1.0);
    let mut all = plain;
    all.absorb(traced);
    if let Some((d, _)) = direct {
        all.absorb(d);
    }
    report.metric(
        "gen.cpu_us_per_req",
        all.gen_cpu.as_secs_f64() * 1e6 / all.attempted.max(1) as f64,
    );
    report.metric("gen.send_gap_us", median(&all.gaps_us));
    report.lines.push(format!("peak rss        : {peak:.1} MiB over all processes"));
    generator_lines(&mut report, &all);
    report.attribution = Some(attribution);
    report.spans = Some(log);
    phases.absorb(all);
    report.finish_phase(&phases);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_depend_only_on_seed_stream_and_index() {
        assert_eq!(picks(7, 2, 10, 8, 1000), picks(7, 2, 10, 8, 1000));
        assert_ne!(picks(7, 2, 10, 8, 1000), picks(8, 2, 10, 8, 1000));
        assert_ne!(picks(7, 2, 10, 8, 1000), picks(7, 3, 10, 8, 1000));
        assert!(picks(7, 2, 10, 8, 1000).iter().all(|&n| n < 1000));
    }

    #[test]
    fn hit_ratio_of_counter_deltas() {
        let before = Counters { hits: 10, misses: 90, ..Counters::default() };
        let after = Counters { hits: 70, misses: 110, ..Counters::default() };
        assert_eq!(after.since(before).hit_ratio(), 0.75);
        assert_eq!(Counters::default().hit_ratio(), 0.0);
    }
}
