//! The consistent-front router: one std-only HTTP process that makes N
//! shard workers look like a single classify endpoint.
//!
//! Responsibilities, in order of importance:
//!
//! * **Routing.** `POST /v1/classify` bodies name nodes in *global* id
//!   space; the router groups them by [`crate::ShardMap`] ownership,
//!   forwards one sub-batch per owning shard, and moves the per-node
//!   records back into the caller's original order. A batch that lands
//!   on one shard is forwarded whole — the common case under
//!   locality-friendly ids costs one upstream exchange. Every body goes
//!   through [`crate::wire`]: the merged reply is a
//!   [`crate::ClassifyResponse`] like each worker's, with `billed_tokens`
//!   and `replayed` summed over the shards and the consulted `shards`
//!   listed. A worker reply that drops a requested node is a `502`
//!   naming the shard and the node, like a worker that fails mid-batch.
//! * **Health.** A shard that fails `eject_after` consecutive exchanges
//!   is ejected: classify traffic needing it gets an immediate `503`
//!   instead of a hung socket, and a background probe re-admits it on
//!   the first healthy `/v1/healthz`. Survivor shards keep answering
//!   throughout — partial cluster loss degrades, never blacks out.
//! * **Label relay.** Workers push boundary pseudo-labels to
//!   `POST /v1/labels` with the shards their off-shard neighbors live
//!   on; the router fans each batch out to those workers, which ingest
//!   them as remote cues for the γ₁/γ₂ readiness rule. Labels are
//!   advisory: a push toward an ejected shard is dropped and counted,
//!   never errored back to the worker.
//!
//! Everything is observable as `mqo_shard_*` Prometheus series on
//! `GET /metrics`, and `GET /v1/healthz` reports per-shard health so the
//! smoke scripts (and operators) can see a degraded cluster at a glance.

use crate::partition::ShardMap;
use crate::wire::{ClassifyRequest, ClassifyResponse, Label, LabelBatch};
use mqo_obs::httpd::{
    http_errors_total, http_get, HttpClient, HttpConnection, HttpServer, Request,
};
use mqo_obs::{Counter, CounterVec, GaugeVec, Registry};
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Worker address of each shard; index is the shard id. Length must
    /// equal the map's shard count.
    pub shards: Vec<SocketAddr>,
    /// Consecutive upstream failures before a shard is ejected.
    pub eject_after: u32,
    /// How often the probe thread retries ejected shards.
    pub probe_interval: Duration,
}

impl RouterConfig {
    /// Defaults: eject after 3 consecutive failures, probe every 250ms.
    pub fn new(shards: Vec<SocketAddr>) -> RouterConfig {
        RouterConfig { shards, eject_after: 3, probe_interval: Duration::from_millis(250) }
    }
}

struct ShardState {
    addr: SocketAddr,
    /// Persistent upstream connection, rebuilt after failures.
    client: Mutex<Option<HttpClient>>,
    failures: AtomicU32,
    ejected: AtomicBool,
}

struct Inner {
    map: ShardMap,
    shards: Vec<ShardState>,
    eject_after: u32,
    registry: Arc<Registry>,
    shutdown: AtomicBool,
    requests: Arc<CounterVec>,
    routed: Arc<CounterVec>,
    fanout_batches: Arc<Counter>,
    ejections: Arc<CounterVec>,
    readmissions: Arc<CounterVec>,
    ejected_gauge: Arc<GaugeVec>,
    label_pushes: Arc<Counter>,
    labels_forwarded: Arc<CounterVec>,
    labels_dropped: Arc<CounterVec>,
    upstream_errors: Arc<CounterVec>,
}

/// The running router process: routes on the shared [`HttpServer`], a
/// health-probe thread, and per-shard upstream connections. Drop via
/// [`Router::shutdown`].
pub struct Router {
    inner: Arc<Inner>,
    http: HttpServer,
    probe: Option<JoinHandle<()>>,
}

impl Router {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving.
    ///
    /// # Panics
    /// If the shard list length disagrees with the map.
    pub fn start(addr: &str, map: ShardMap, cfg: RouterConfig) -> io::Result<Router> {
        assert_eq!(
            cfg.shards.len() as u32,
            map.num_shards(),
            "router needs one worker address per shard"
        );
        let registry = Arc::new(Registry::new());
        let requests = registry.counter_vec(
            "mqo_shard_router_requests_total",
            "Requests handled by the router, by route",
            &["route"],
        );
        let routed = registry.counter_vec(
            "mqo_shard_routed_requests_total",
            "Classify sub-batches forwarded to each shard",
            &["shard"],
        );
        let fanout_batches = registry.counter(
            "mqo_shard_fanout_batches_total",
            "Classify batches that spanned more than one shard",
        );
        let ejections = registry.counter_vec(
            "mqo_shard_ejections_total",
            "Times each shard was ejected for consecutive failures",
            &["shard"],
        );
        let readmissions = registry.counter_vec(
            "mqo_shard_readmissions_total",
            "Times each shard was re-admitted after a healthy probe",
            &["shard"],
        );
        let ejected_gauge = registry.gauge_vec(
            "mqo_shard_ejected",
            "Whether each shard is currently ejected (1) or serving (0)",
            &["shard"],
        );
        let label_pushes = registry.counter(
            "mqo_shard_label_pushes_total",
            "Label-exchange pushes received from workers",
        );
        let labels_forwarded = registry.counter_vec(
            "mqo_shard_labels_forwarded_total",
            "Pseudo-labels forwarded to each neighbor-owning shard",
            &["shard"],
        );
        let labels_dropped = registry.counter_vec(
            "mqo_shard_labels_dropped_total",
            "Pseudo-labels dropped because the target shard was unreachable",
            &["shard"],
        );
        let upstream_errors = registry.counter_vec(
            "mqo_shard_upstream_errors_total",
            "Failed exchanges with each shard worker",
            &["shard"],
        );
        let shards = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(s, &addr)| {
                ejected_gauge.with(&[&s.to_string()]).set(0);
                ShardState {
                    addr,
                    client: Mutex::new(None),
                    failures: AtomicU32::new(0),
                    ejected: AtomicBool::new(false),
                }
            })
            .collect();
        let inner = Arc::new(Inner {
            map,
            shards,
            eject_after: cfg.eject_after.max(1),
            registry,
            shutdown: AtomicBool::new(false),
            requests,
            routed,
            fanout_batches,
            ejections,
            readmissions,
            ejected_gauge,
            label_pushes,
            labels_forwarded,
            labels_dropped,
            upstream_errors,
        });

        let http = {
            let inner = inner.clone();
            HttpServer::start(addr, http_errors_total(&inner.registry), move |req, conn| {
                inner.route(req, conn)
            })?
        };
        let probe = {
            let inner = inner.clone();
            let interval = cfg.probe_interval;
            thread::Builder::new().name("mqo-route-probe".into()).spawn(move || {
                while !inner.shutdown.load(Ordering::SeqCst) {
                    thread::sleep(interval);
                    inner.probe_ejected();
                }
            })?
        };
        Ok(Router { inner, http, probe: Some(probe) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The router's metric registry (the `/metrics` content).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Whether `shard` is currently ejected.
    pub fn is_ejected(&self, shard: u32) -> bool {
        self.inner.shards[shard as usize].ejected.load(Ordering::SeqCst)
    }

    /// Stop accepting, close every client connection once its current
    /// request is answered, and join the connection and probe threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.http.shutdown();
        if let Some(h) = self.probe.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Result of one upstream exchange: the status line and body, or the
/// error that killed the connection.
type Exchange = io::Result<(String, String)>;

/// A response status and JSON body.
type Reply = (Cow<'static, str>, String);

impl Inner {
    fn route(&self, req: &Request, conn: &mut HttpConnection) -> io::Result<()> {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => {
                self.requests.with(&["/v1/healthz"]).inc();
                let (status, body) = self.healthz();
                conn.respond(status, "application/json", &body)
            }
            ("GET", "/v1/stats") => {
                self.requests.with(&["/v1/stats"]).inc();
                let body = self.stats();
                conn.respond("200 OK", "application/json", &body)
            }
            ("GET", "/metrics") => {
                self.requests.with(&["/metrics"]).inc();
                let body = self.registry.render_prometheus();
                conn.respond("200 OK", "text/plain; version=0.0.4", &body)
            }
            ("POST", "/v1/classify") => {
                self.requests.with(&["/v1/classify"]).inc();
                let (status, body) = self.classify(req);
                conn.respond(&status, "application/json", &body)
            }
            ("POST", "/v1/labels") => {
                self.requests.with(&["/v1/labels"]).inc();
                let (status, body) = self.relay_labels(req);
                conn.respond(&status, "application/json", &body)
            }
            ("GET", _) | ("POST", _) => {
                self.requests.with(&["other"]).inc();
                conn.respond(
                    "404 Not Found",
                    "application/json",
                    "{\"error\":\"no such route\"}",
                )
            }
            _ => conn.respond("405 Method Not Allowed", "text/plain", "only GET/POST\n"),
        }
    }

    fn healthz(&self) -> (&'static str, String) {
        let shards: Vec<Value> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, st)| {
                json!({
                    "shard": s,
                    "addr": st.addr.to_string(),
                    "healthy": !st.ejected.load(Ordering::SeqCst),
                })
            })
            .collect();
        let down = self.shards.iter().filter(|s| s.ejected.load(Ordering::SeqCst)).count();
        let status = if down == 0 { "ok" } else { "degraded" };
        // Degraded is still 200: the router itself is up and survivor
        // shards answer. Only a fully ejected cluster is a 503.
        let http = if down == self.shards.len() { "503 Service Unavailable" } else { "200 OK" };
        (
            http,
            jstr(&json!({
                "status": status,
                "role": "router",
                "num_shards": self.shards.len(),
                "ejected": down,
                "shards": shards,
            })),
        )
    }

    fn stats(&self) -> String {
        let per_shard: Vec<Value> = (0..self.shards.len() as u32)
            .map(|s| match self.exchange(s, |c| c.get("/v1/stats")) {
                Ok((status, body)) if status.contains("200") => {
                    serde_json::from_str(&body).unwrap_or(Value::Null)
                }
                _ => Value::Null,
            })
            .collect();
        let each = |key: &'static str| {
            per_shard.iter().map(move |s| s.get(key).and_then(Value::as_u64).unwrap_or(0))
        };
        jstr(&json!({
            "role": "router",
            "num_shards": self.shards.len(),
            "nodes": self.map.num_nodes(),
            "queries": each("queries").sum::<u64>(),
            "requests": each("requests").sum::<u64>(),
            "pseudo_labels": each("pseudo_labels").sum::<u64>(),
            "peak_rss_mb": each("peak_rss_mb").max().unwrap_or(0),
            "shards": per_shard,
        }))
    }

    /// Route a classify batch: group global node ids by owner, forward
    /// per-shard sub-batches, and move the records back into request
    /// order. Counts add up across shards: `billed_tokens` and
    /// `replayed` are sums, `degraded` is set if any shard degraded.
    fn classify(&self, req: &Request) -> Reply {
        let body = match ClassifyRequest::decode(req.body_utf8()) {
            Ok(body) => body,
            Err(e) => return bad_request(e),
        };
        let nodes = &body.nodes;
        if let Some(&bad) = nodes.iter().find(|&&n| n >= u64::from(self.map.num_nodes())) {
            return bad_request(format!(
                "node {bad} out of range (partition covers {} nodes)",
                self.map.num_nodes()
            ));
        }

        // Group by owner, preserving first-appearance shard order; each
        // node remembers its group so reassembly needs no lookup.
        let mut groups: Vec<(u32, Vec<u64>)> = Vec::new();
        let mut group_of = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let owner = self.map.owner(n as u32);
            let g = groups.iter().position(|(s, _)| *s == owner).unwrap_or_else(|| {
                groups.push((owner, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(n);
            group_of.push(g);
        }
        if groups.len() > 1 {
            self.fanout_batches.inc();
        }
        // Fail fast before any shard does work: a required shard being
        // down makes the whole batch unanswerable.
        if let Some((s, _)) =
            groups.iter().find(|(s, _)| self.shards[*s as usize].ejected.load(Ordering::SeqCst))
        {
            return (
                "503 Service Unavailable".into(),
                jstr(&json!({"error": format!("shard {s} is ejected"), "shard": *s})),
            );
        }

        let trace = req.header("x-mqo-trace-id").map(str::to_owned);
        let mut merged = ClassifyResponse {
            trace: trace.clone().unwrap_or_default(),
            shards: groups.iter().map(|(s, _)| *s).collect(),
            ..ClassifyResponse::default()
        };
        let mut replies = Vec::with_capacity(groups.len());
        for (shard, group) in &groups {
            let sub =
                ClassifyRequest { nodes: group.clone(), tenant: body.tenant.clone() }.encode();
            self.routed.with(&[&shard.to_string()]).inc();
            let result = self.exchange(*shard, |c| match &trace {
                Some(t) => c.post_with_header("/v1/classify", &sub, ("x-mqo-trace-id", t)),
                None => c.post("/v1/classify", &sub),
            });
            let reply = match result {
                Ok((status, body)) if status.contains("200") => {
                    ClassifyResponse::decode(&body).ok()
                }
                // Upstream answered but refused (bad request, shed,
                // draining, …): relay its verdict rather than invent one.
                Ok((status, body)) => match status.split_once(' ') {
                    Some((_, verdict)) if !verdict.is_empty() => {
                        return (verdict.to_string().into(), body)
                    }
                    _ => None,
                },
                Err(_) => None,
            };
            let Some(reply) = reply else {
                return bad_gateway(*shard, format!("shard {shard} failed mid-batch"));
            };
            merged.billed_tokens += reply.billed_tokens;
            merged.replayed += reply.replayed;
            merged.degraded |= reply.degraded;
            if merged.tenant.is_empty() {
                merged.tenant = reply.tenant;
            }
            replies.push(reply.records.into_iter());
        }

        // Workers answer one record per node in sub-batch order, so each
        // node takes the next record of its group's reply.
        merged.records.reserve(nodes.len());
        for (&n, &g) in nodes.iter().zip(&group_of) {
            match replies[g].next() {
                Some(record) if record.node == n => merged.records.push(record),
                _ => {
                    let shard = groups[g].0;
                    return bad_gateway(
                        shard,
                        format!("shard {shard} answered without node {n}"),
                    );
                }
            }
        }
        ("200 OK".into(), merged.encode())
    }

    /// Relay a worker's boundary pseudo-labels to the shards owning the
    /// labeled nodes' neighbors.
    fn relay_labels(&self, req: &Request) -> Reply {
        let push = match LabelBatch::decode(req.body_utf8()) {
            Ok(push) => push,
            Err(e) => return bad_request(e),
        };
        self.label_pushes.inc();
        // Regroup the per-node target lists into one payload per shard.
        let mut per_target: HashMap<u32, Vec<Label>> = HashMap::new();
        for l in push.labels {
            for &t in &l.shards {
                if t as usize >= self.shards.len() {
                    return bad_request(format!("label target shard {t} out of range"));
                }
                if Some(t) != push.from_shard {
                    per_target.entry(t).or_default().push(Label {
                        node: l.node,
                        label: l.label,
                        shards: Vec::new(),
                    });
                }
            }
        }

        let (mut forwarded, mut dropped) = (0usize, 0usize);
        let targets = per_target.len();
        for (target, labels) in per_target {
            let count = labels.len();
            let payload = LabelBatch { from_shard: None, labels }.encode();
            // Advisory traffic: a label toward an ejected or failing shard
            // costs γ readiness some remote cues, not correctness. Count it
            // as dropped and move on.
            let delivered = !self.shards[target as usize].ejected.load(Ordering::SeqCst)
                && matches!(
                    self.exchange(target, |c| c.post("/v1/labels", &payload)),
                    Ok((status, _)) if status.contains("200")
                );
            let (counter, tally) = if delivered {
                (&self.labels_forwarded, &mut forwarded)
            } else {
                (&self.labels_dropped, &mut dropped)
            };
            counter.with(&[&target.to_string()]).add(count as u64);
            *tally += count;
        }
        (
            "200 OK".into(),
            jstr(&json!({"forwarded": forwarded, "dropped": dropped, "targets": targets})),
        )
    }

    /// One exchange with `shard`'s worker over its persistent connection,
    /// with health bookkeeping: success clears the failure streak (and
    /// re-admits an ejected shard that answered anyway); failure kills
    /// the cached connection and may eject. A failure on a *cached*
    /// connection retries once on a fresh one before counting, so a
    /// worker-side idle close never surfaces as a 502 or an ejection.
    fn exchange(&self, shard: u32, f: impl Fn(&mut HttpClient) -> Exchange) -> Exchange {
        let st = &self.shards[shard as usize];
        let mut slot = st.client.lock();
        let mut cached = true;
        if slot.is_none() {
            match HttpClient::connect(st.addr) {
                Ok(c) => {
                    *slot = Some(c);
                    cached = false;
                }
                Err(e) => {
                    drop(slot);
                    self.note_failure(shard);
                    return Err(e);
                }
            }
        }
        let mut result = f(slot.as_mut().expect("connected above"));
        // A worker may close a cached keep-alive connection at any time
        // (idle timeout, restart), and the first reuse then fails before
        // the worker ever sees the request. One fresh-connection retry
        // distinguishes a stale socket from a dead shard — requests are
        // deterministic, so replaying one is safe. A genuinely dead
        // worker refuses the reconnect and still lands in the failure
        // bookkeeping below.
        if result.is_err() && cached {
            *slot = None;
            if let Ok(c) = HttpClient::connect(st.addr) {
                *slot = Some(c);
                result = f(slot.as_mut().expect("reconnected above"));
            }
        }
        if result.is_ok() {
            self.note_healthy(shard);
        } else {
            *slot = None;
            drop(slot);
            self.note_failure(shard);
        }
        result
    }

    /// Clear `shard`'s failure streak and re-admit it if it was ejected.
    fn note_healthy(&self, shard: u32) {
        let st = &self.shards[shard as usize];
        st.failures.store(0, Ordering::SeqCst);
        if st.ejected.swap(false, Ordering::SeqCst) {
            let label = shard.to_string();
            self.readmissions.with(&[&label]).inc();
            self.ejected_gauge.with(&[&label]).set(0);
        }
    }

    fn note_failure(&self, shard: u32) {
        let st = &self.shards[shard as usize];
        let label = shard.to_string();
        self.upstream_errors.with(&[&label]).inc();
        let streak = st.failures.fetch_add(1, Ordering::SeqCst) + 1;
        if streak >= self.eject_after && !st.ejected.swap(true, Ordering::SeqCst) {
            self.ejections.with(&[&label]).inc();
            self.ejected_gauge.with(&[&label]).set(1);
        }
    }

    /// Retry every ejected shard's healthz once; re-admit on success.
    fn probe_ejected(&self) {
        for (s, st) in self.shards.iter().enumerate() {
            if st.ejected.load(Ordering::SeqCst)
                && matches!(http_get(st.addr, "/v1/healthz"), Ok((status, _)) if status.contains("200"))
            {
                self.note_healthy(s as u32);
            }
        }
    }
}

/// Stringify a JSON value (the vendored `Value` has no `Display`).
fn jstr(v: &Value) -> String {
    serde_json::to_string(v).expect("response serialization")
}

fn bad_request(msg: String) -> Reply {
    ("400 Bad Request".into(), jstr(&json!({"error": msg})))
}

fn bad_gateway(shard: u32, msg: String) -> Reply {
    ("502 Bad Gateway".into(), jstr(&json!({"error": msg, "shard": shard})))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition, PartitionStrategy};
    use mqo_graph::GraphBuilder;
    use mqo_obs::http_post;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// A scriptable fake shard worker on the shared server: answers
    /// classify with one record per node, echoing the node id, in the
    /// shape real workers send, until killed.
    struct FakeShard {
        addr: SocketAddr,
        server: HttpServer,
    }

    /// What a [`FakeShard`] puts in its classify replies.
    #[derive(Clone, Copy, Default)]
    struct FakeReply {
        /// The `"replayed"` count of every reply.
        replayed: u64,
        /// A node whose record the fake leaves out.
        omit: Option<u64>,
    }

    impl FakeShard {
        fn start(shard_id: u32) -> FakeShard {
            FakeShard::start_with(shard_id, FakeReply::default())
        }

        fn start_with(shard_id: u32, reply: FakeReply) -> FakeShard {
            FakeShard::start_at("127.0.0.1:0", shard_id, reply).unwrap()
        }

        fn start_at(addr: &str, shard_id: u32, reply: FakeReply) -> io::Result<FakeShard> {
            let served = AtomicU32::new(0);
            let server = HttpServer::start(
                addr,
                Arc::new(Counter::new()),
                move |req, conn| {
                    let body = match (req.method.as_str(), req.path.as_str()) {
                        ("GET", "/v1/healthz") => jstr(&json!({"status": "ok"})),
                        ("GET", "/v1/stats") => {
                            let served = served.load(Ordering::SeqCst);
                            jstr(&json!({
                                "queries": served, "requests": served,
                                "pseudo_labels": 0, "peak_rss_mb": 10 + shard_id,
                            }))
                        }
                        ("POST", "/v1/labels") => jstr(&json!({"ingested": true})),
                        ("POST", "/v1/classify") => {
                            served.fetch_add(1, Ordering::SeqCst);
                            let v: Value = serde_json::from_str(req.body_utf8()).unwrap();
                            let records: Vec<Value> = v["nodes"]
                                .as_array()
                                .unwrap()
                                .iter()
                                .filter(|n| n.as_u64() != reply.omit)
                                .map(|n| json!({"node": n.clone(), "predicted": shard_id, "correct": true}))
                                .collect();
                            jstr(&json!({
                                "tenant": v.get("tenant").cloned().unwrap_or(json!("public")),
                                "records": records,
                                "replayed": reply.replayed,
                                "billed_tokens": 7,
                                "degraded": false,
                            }))
                        }
                        _ => jstr(&json!({"error": "?"})),
                    };
                    conn.respond("200 OK", "application/json", &body)
                },
            )?;
            Ok(FakeShard { addr: server.addr(), server })
        }

        fn kill(&mut self) {
            self.server.shutdown();
        }
    }

    fn line_map(num_nodes: u32, num_shards: u32) -> ShardMap {
        let mut b = GraphBuilder::new(num_nodes as usize);
        for v in 1..num_nodes {
            b.add_edge(v - 1, v).unwrap();
        }
        partition(&b.build(), num_shards, 5, PartitionStrategy::EdgeCut)
    }

    #[test]
    fn batches_fan_out_and_reassemble_in_request_order() {
        let map = line_map(100, 2);
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start(1);
        let router =
            Router::start("127.0.0.1:0", map, RouterConfig::new(vec![s0.addr, s1.addr]))
                .unwrap();

        // Nodes deliberately interleaved across the two shard ranges.
        let (status, body) =
            http_post(router.addr(), "/v1/classify", r#"{"nodes":[99, 1, 60, 2]}"#).unwrap();
        assert!(status.contains("200"), "status: {status}, body: {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        let order: Vec<u64> = v["records"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["node"].as_u64().unwrap())
            .collect();
        assert_eq!(order, vec![99, 1, 60, 2], "original request order restored");
        // Each record answered by its owner (fake shards echo their id).
        let preds: Vec<u64> = v["records"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["predicted"].as_u64().unwrap())
            .collect();
        assert_eq!(preds, vec![1, 0, 1, 0]);
        assert_eq!(v["billed_tokens"].as_u64(), Some(14), "billed once per consulted shard");
        assert_eq!(v["shards"].as_array().unwrap().len(), 2);

        let metrics = router.registry().render_prometheus();
        assert!(metrics.contains("mqo_shard_fanout_batches_total 1"), "{metrics}");
        router.shutdown();
    }

    #[test]
    fn routed_replayed_is_the_sum_of_worker_counts() {
        let map = line_map(100, 2);
        let replay_two = FakeReply { replayed: 2, ..FakeReply::default() };
        let s0 = FakeShard::start_with(0, replay_two);
        let s1 = FakeShard::start_with(1, replay_two);
        let router =
            Router::start("127.0.0.1:0", map, RouterConfig::new(vec![s0.addr, s1.addr]))
                .unwrap();
        let (status, body) =
            http_post(router.addr(), "/v1/classify", r#"{"nodes":[1, 99]}"#).unwrap();
        assert!(status.contains("200"), "status: {status}, body: {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["replayed"].as_u64(), Some(4), "two shards replayed two each: {body}");
        router.shutdown();
    }

    #[test]
    fn a_reply_missing_a_requested_node_is_a_502_naming_shard_and_node() {
        let map = line_map(100, 2);
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start_with(1, FakeReply { omit: Some(60), ..FakeReply::default() });
        let router =
            Router::start("127.0.0.1:0", map, RouterConfig::new(vec![s0.addr, s1.addr]))
                .unwrap();
        let (status, body) =
            http_post(router.addr(), "/v1/classify", r#"{"nodes":[99, 1, 60, 2]}"#).unwrap();
        assert!(status.contains("502"), "status: {status}, body: {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        let error = v["error"].as_str().unwrap();
        assert!(error.contains("shard 1") && error.contains("60"), "error: {error}");
        assert_eq!(v["shard"].as_u64(), Some(1));
        router.shutdown();
    }

    #[test]
    fn dead_shard_is_ejected_survivors_answer_and_probe_readmits() {
        let map = line_map(100, 2);
        let s0 = FakeShard::start(0);
        let mut s1 = FakeShard::start(1);
        let mut cfg = RouterConfig::new(vec![s0.addr, s1.addr]);
        cfg.eject_after = 2;
        cfg.probe_interval = Duration::from_millis(30);
        let router = Router::start("127.0.0.1:0", map, cfg).unwrap();
        let addr = router.addr();

        s1.kill();
        // Requests needing the dead shard fail until the streak ejects it.
        for _ in 0..3 {
            let _ = http_post(addr, "/v1/classify", r#"{"nodes":[90]}"#);
        }
        assert!(router.is_ejected(1), "two consecutive failures must eject");
        let (status, body) = http_post(addr, "/v1/classify", r#"{"nodes":[90]}"#).unwrap();
        assert!(status.contains("503"), "ejected shard fails fast: {status} {body}");

        // Survivors keep answering, healthz says degraded.
        let (status, body) = http_post(addr, "/v1/classify", r#"{"nodes":[3]}"#).unwrap();
        assert!(status.contains("200"), "survivor must answer: {status} {body}");
        let (_, health) = http_get(addr, "/v1/healthz").unwrap();
        assert!(health.contains("\"degraded\""), "healthz: {health}");

        // Restart the worker on the same port; the probe re-admits.
        let revived = loop {
            match FakeShard::start_at(&s1.addr.to_string(), 1, FakeReply::default()) {
                Ok(shard) => break shard,
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while router.is_ejected(1) && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        assert!(!router.is_ejected(1), "healthy probe must re-admit");
        let (_, health) = http_get(addr, "/v1/healthz").unwrap();
        assert!(health.contains("\"ok\""), "healthz after re-admit: {health}");
        router.shutdown();
        drop(revived);
    }

    #[test]
    fn label_pushes_are_regrouped_per_target_shard() {
        let map = line_map(90, 3);
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start(1);
        let s2 = FakeShard::start(2);
        let router = Router::start(
            "127.0.0.1:0",
            map,
            RouterConfig::new(vec![s0.addr, s1.addr, s2.addr]),
        )
        .unwrap();
        let labels = vec![
            json!({"node": 29, "label": 3, "shards": vec![0]}),
            json!({"node": 59, "label": 1, "shards": vec![2]}),
            json!({"node": 30, "label": 2, "shards": vec![0, 2]}),
            // A target equal to the sender is skipped, not echoed.
            json!({"node": 31, "label": 2, "shards": vec![1]}),
        ];
        let push = jstr(&json!({"from_shard": 1, "labels": labels}));
        let (status, body) = http_post(router.addr(), "/v1/labels", &push).unwrap();
        assert!(status.contains("200"), "{status} {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["forwarded"].as_u64(), Some(4), "two labels to shard 0, two to shard 2");
        assert_eq!(v["targets"].as_u64(), Some(2));
        let metrics = router.registry().render_prometheus();
        assert!(
            metrics.contains("mqo_shard_labels_forwarded_total{shard=\"0\"} 2"),
            "{metrics}"
        );
        assert!(
            metrics.contains("mqo_shard_labels_forwarded_total{shard=\"2\"} 2"),
            "{metrics}"
        );
        router.shutdown();
    }

    #[test]
    fn router_stats_aggregate_worker_stats() {
        let map = line_map(40, 2);
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start(1);
        let router =
            Router::start("127.0.0.1:0", map, RouterConfig::new(vec![s0.addr, s1.addr]))
                .unwrap();
        let _ = http_post(router.addr(), "/v1/classify", r#"{"nodes":[1, 30]}"#).unwrap();
        let (status, body) = http_get(router.addr(), "/v1/stats").unwrap();
        assert!(status.contains("200"), "{status}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["num_shards"].as_u64(), Some(2));
        assert_eq!(v["nodes"].as_u64(), Some(40), "routers advertise the global node range");
        assert_eq!(v["queries"].as_u64(), Some(2));
        assert_eq!(v["peak_rss_mb"].as_u64(), Some(11), "max over workers, not sum");
        router.shutdown();
    }

    /// Send `raw` and read one response: the head through the blank line,
    /// then `Content-Length` bytes of body. The connection stays open.
    fn raw_exchange(stream: &mut TcpStream, raw: &[u8]) -> String {
        stream.write_all(raw).unwrap();
        let mut got = Vec::new();
        let mut byte = [0u8; 1];
        while !got.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            got.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&got).into_owned();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        head + &String::from_utf8_lossy(&body)
    }

    #[test]
    fn shutdown_closes_open_keep_alive_connections() {
        let s0 = FakeShard::start(0);
        let router =
            Router::start("127.0.0.1:0", line_map(10, 1), RouterConfig::new(vec![s0.addr]))
                .unwrap();
        let mut stream = TcpStream::connect(router.addr()).unwrap();
        let got = raw_exchange(&mut stream, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 200"), "got: {got}");
        assert!(got.contains("Connection: keep-alive"), "got: {got}");
        router.shutdown();
        // Shorter than the server's 5s idle timeout: only shutdown itself
        // can close the connection in time.
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 64];
        let n = stream.read(&mut buf).expect("EOF, not a timeout, after shutdown");
        assert_eq!(n, 0, "connection still open after shutdown");
    }

    #[test]
    fn framing_errors_get_400_and_are_counted() {
        let s0 = FakeShard::start(0);
        let router =
            Router::start("127.0.0.1:0", line_map(10, 1), RouterConfig::new(vec![s0.addr]))
                .unwrap();
        let mut stream = TcpStream::connect(router.addr()).unwrap();
        let got = raw_exchange(
            &mut stream,
            b"POST /v1/classify HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\nhello",
        );
        assert!(got.starts_with("HTTP/1.1 400"), "got: {got}");
        assert!(got.contains("conflicting"), "got: {got}");
        // The counter moves on the connection thread after the 400 goes
        // out; poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut metrics = router.registry().render_prometheus();
        while !metrics.contains("mqo_http_errors_total 1")
            && std::time::Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(5));
            metrics = router.registry().render_prometheus();
        }
        assert!(metrics.contains("mqo_http_errors_total 1"), "{metrics}");
        router.shutdown();
    }
}
