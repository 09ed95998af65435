//! The HTTP surface and its lifecycle.
//!
//! ```text
//! POST /v1/classify      {"node": 3} | {"nodes":[3,4], "tenant":"acme"}
//! GET  /v1/healthz       200 ok | 503 draining
//! GET  /v1/stats         serving counters, tenants, cache, journal
//! GET  /v1/slo           per-tenant SLO windows and burn rates
//! GET  /v1/debug/flight  flight recorder: slowest + recent errors
//! GET  /metrics          Prometheus exposition (shared registry)
//! GET  /progress         compact JSON progress snapshot
//! POST /v1/drain         request a graceful drain (202)
//! POST /v1/labels        shard workers: ingest remote pseudo-labels
//! ```
//!
//! Classify and label bodies go through [`mqo_shard::wire`], the codec
//! the router shares: a classify `200` is a
//! [`mqo_shard::ClassifyResponse`] whose records are journal lines, and
//! `/v1/labels` takes a [`mqo_shard::LabelBatch`].
//!
//! ## Request tracing
//!
//! Every `/v1/classify` request runs under a 16-hex trace id: honored
//! from an `x-mqo-trace-id` header (or the trace-id field of a W3C
//! `traceparent`), minted deterministically from the engine's seed
//! otherwise. The id is echoed in the `x-mqo-trace-id` response header
//! and the response JSON, stamped on the request's span tree, and
//! annotated onto journal lines and cost-ledger events — so one grep
//! connects a client timeout to its server-side spans, its journal
//! record, and its token bill.
//!
//! Three admission gates guard `/v1/classify`, in order: draining
//! (`503`), tenant budget (`429`, nothing billed), and the
//! [`AdmissionGate`]. The gate sheds with `429` and a *computed*
//! `Retry-After` when it is shedding on sojourn, the tenant is over its
//! fair share of the wait room, or the wait room is full; otherwise it
//! seats the request, waiting at most until its deadline. Admitted work
//! executes *on the connection handler's own thread* under its
//! [`Seat`](crate::shed::Seat): at most `workers` batches run, at most
//! `queue_capacity` wait, and the request never crosses a queue or a
//! reply channel — the handler calls straight into the engine's
//! [`mqo_core::Scheduler`] FIFO path and writes the response itself.
//! Dropping the seat frees the slot and the tenant's share.
//!
//! Every classify exit, refusal or answer, is decided first as one
//! outcome (status, body, optional `Retry-After`, flight summary) and
//! then written in one place with the `x-mqo-trace-id` header; only
//! after the response is out does the epilogue stamp the request
//! metrics, the tenant's SLO windows and the flight recorder.
//!
//! ## Deadlines and brown-out
//!
//! An `x-mqo-deadline-ms` request header bounds the whole request: the
//! slot wait is capped at the remaining budget, the deadline is
//! re-checked once seated, and it rides a thread-local into the
//! resilient LLM client so in-flight work stops metering the moment it
//! cannot finish in time. An expired deadline answers `504` with zero
//! tokens billed, at whichever stage it died (`queue`, `admitted`,
//! `executing`).
//!
//! Under sustained pressure (shed rate + sojourn past the brown-out
//! threshold) admitted requests are served *degraded*: the paper's
//! pruned, neighbor-free prompts (Algorithm 1's top-τ% treatment
//! applied to the whole stream), flagged `"degraded": true` in the
//! response. Accuracy dips, goodput survives.
//!
//! ## Graceful drain
//!
//! [`Server::drain`] runs the shutdown sequence in dependency order:
//! mark draining (late requests get a clean `503`) → shut down the
//! shared [`HttpServer`] (it stops the accept loop, half-closes open
//! connections and joins their handlers; every admitted batch finishes
//! on its handler's thread, seats release as they go, and in-flight
//! responses still write) → seal the journal (fsync) → close the run
//! span → flush trace artifacts. Accepted work always finishes; a
//! restarted server resumes from the sealed journal re-billing zero
//! tokens.

use crate::config::ServerOptions;
use crate::engine::{Engine, Rejection};
use crate::shed::{AdmissionGate, BrownoutTransition, Refusal};
use mqo_core::journal::record_to_json;
use mqo_graph::NodeId;
use mqo_obs::httpd::{http_errors_total, HttpConnection, HttpServer, Request};
use mqo_obs::{
    respond_metrics, spans_from_events, Clock, Event, EventSink, FlightEntry, Recorder, SpanId,
    Tee, MONOTONIC_CLOCK,
};
use mqo_shard::wire::{ClassifyRequest, ClassifyResponse, LabelBatch, NodeRecord};
use serde_json::{json, Value};
use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

/// What the drain sequence observed, for operator logs and exit status.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Node queries executed or replayed over the server's lifetime.
    pub queries: u64,
    /// Queries served from the journal without re-billing.
    pub replayed: u64,
    /// Whether a journal was sealed (fsync'd) by this drain.
    pub journal_sealed: bool,
}

/// A running classification server; see the module docs. Construct with
/// [`Server::start`], stop with [`Server::drain`] (dropping an
/// undrained server drains it too, discarding the report).
pub struct Server {
    engine: Arc<Engine>,
    http: HttpServer,
    span_close: Option<mpsc::Sender<()>>,
    supervisor: Option<JoinHandle<()>>,
    options: ServerOptions,
}

impl Server {
    /// Open the run span, build the admission gate, bind and start
    /// serving.
    pub fn start(engine: Arc<Engine>, options: ServerOptions) -> io::Result<Server> {
        // The run span lives on a dedicated supervisor thread: it must
        // open before the first query (so query spans have a "run"
        // ancestor) and close after the last handler exits (so span
        // intervals nest), and span guards borrow engine internals —
        // a thread's stack frame is the one place that satisfies all
        // three.
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let (span_close_tx, span_close_rx) = mpsc::channel::<()>();
        let span_engine = Arc::clone(&engine);
        let supervisor =
            thread::Builder::new().name("mqo-serve-span".into()).spawn(move || {
                let span = span_engine.tracer().span(
                    span_engine.fanout(),
                    "run",
                    || format!("serve {}", span_engine.dataset_name()),
                    SpanId::NONE,
                );
                span_engine.set_run_scope(span.id());
                let _ = ready_tx.send(());
                let _ = span_close_rx.recv();
            })?;
        ready_rx.recv().map_err(|_| io::Error::other("span supervisor died before serving"))?;

        let gate = AdmissionGate::new(
            options.overload.clone(),
            options.workers,
            options.queue_capacity,
        );

        let http = {
            let engine = Arc::clone(&engine);
            let errors = http_errors_total(engine.metrics().registry());
            HttpServer::start(options.addr.as_str(), errors, move |req, conn| {
                handle_request(&engine, &gate, req, conn)
            })?
        };

        Ok(Server {
            engine,
            http,
            span_close: Some(span_close_tx),
            supervisor: Some(supervisor),
            options,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Graceful drain; see the module docs for the sequence.
    pub fn drain(mut self) -> DrainReport {
        self.drain_in_place()
    }

    fn drain_in_place(&mut self) -> DrainReport {
        // 1. Refuse new classification work with a clean 503.
        self.engine.set_draining();
        // 2–3. Stop accepting (later connections are refused at the
        //    socket) and let in-flight connections finish: every admitted
        //    batch runs on its handler's thread, so joining the handlers
        //    *is* draining the work — seats release as batches complete
        //    and parked waiters run to completion behind them.
        self.http.shutdown();
        // 4. Seal the journal: everything answered is now durable, so a
        //    restarted server replays it without re-billing a token.
        let journal_sealed = match self.engine.journal() {
            Some(j) => {
                j.seal_round(0);
                true
            }
            None => false,
        };
        // 5. Close the run span (after the last query span) and flush
        //    trace artifacts.
        self.span_close.take();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        self.engine.finish();
        DrainReport {
            queries: self.engine.journal().map_or(0, |j| j.recorded() + j.replayed()),
            replayed: self.engine.journal().map_or(0, |j| j.replayed()),
            journal_sealed,
        }
    }

    /// Concurrent-execution bound (slot count).
    pub fn workers(&self) -> usize {
        self.options.workers.max(1)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.supervisor.is_some() {
            self.drain_in_place();
        }
    }
}

fn json_response(conn: &mut HttpConnection, status: &str, body: &Value) -> io::Result<()> {
    let mut text = serde_json::to_string(body).expect("response serialization");
    text.push('\n');
    conn.respond(status, "application/json", &text)
}

/// Bounded route label for the request metrics: known paths keep their
/// own series, everything else folds into `other`.
fn route_label(path: &str) -> &'static str {
    match path {
        "/v1/classify" => "/v1/classify",
        "/v1/healthz" => "/v1/healthz",
        "/v1/stats" => "/v1/stats",
        "/v1/slo" => "/v1/slo",
        "/v1/debug/flight" => "/v1/debug/flight",
        "/v1/drain" => "/v1/drain",
        "/v1/labels" => "/v1/labels",
        "/metrics" => "/metrics",
        "/progress" => "/progress",
        _ => "other",
    }
}

fn is_hex16(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The trace id a classify request runs under: a caller-supplied
/// `x-mqo-trace-id` (16 hex digits) wins, then the trace-id field of a
/// W3C `traceparent` (first 16 of its 32 hex digits), else a fresh id
/// minted deterministically from the engine's seed. The all-zero id is
/// invalid in both conventions and falls through to minting.
fn trace_for(req: &Request, engine: &Engine) -> String {
    if let Some(h) = req.header("x-mqo-trace-id") {
        let h = h.trim().to_ascii_lowercase();
        if is_hex16(&h) && h != "0000000000000000" {
            return h;
        }
    }
    if let Some(tp) = req.header("traceparent") {
        // version-traceid-parentid-flags, e.g. 00-<32 hex>-<16 hex>-01
        let mut parts = tp.trim().split('-');
        let (Some(_version), Some(trace_id)) = (parts.next(), parts.next()) else {
            return engine.mint_trace();
        };
        if trace_id.len() == 32 && trace_id.bytes().all(|b| b.is_ascii_hexdigit()) {
            let short = trace_id[..16].to_ascii_lowercase();
            if short != "0000000000000000" {
                return short;
            }
        }
    }
    engine.mint_trace()
}

/// How a classify request ends: the response [`handle_classify`] writes
/// and what [`finish_classify`] records about it afterwards.
struct Outcome {
    /// HTTP status code.
    status: u16,
    /// JSON response body, the request's trace id included.
    body: String,
    /// `Retry-After` seconds; set on sheds.
    retry_after: Option<u64>,
    /// Tenant label for metrics, SLO windows and flight (`-` before the
    /// body parses).
    tenant: String,
    /// One-line flight-recorder summaries of request and response.
    request_summary: String,
    summary: String,
    /// The events a request that ran emitted; the epilogue rebuilds
    /// its span tree for the flight recorder after the response is out.
    collector: Option<Recorder>,
}

impl Outcome {
    /// A refusal: no events, no `Retry-After`.
    fn refused(
        status: u16,
        body: &Value,
        tenant: &str,
        request_summary: String,
        summary: String,
    ) -> Outcome {
        Outcome {
            status,
            body: serde_json::to_string(body).expect("response serialization"),
            retry_after: None,
            tenant: tenant.to_string(),
            request_summary,
            summary,
            collector: None,
        }
    }
}

/// The status line of each classify status.
fn status_line(status: u16) -> &'static str {
    match status {
        200 => "200 OK",
        400 => "400 Bad Request",
        429 => "429 Too Many Requests",
        503 => "503 Service Unavailable",
        _ => "504 Gateway Timeout",
    }
}

/// Classify epilogue, run after the response is flushed: stamp the
/// exchange into the labeled request metrics, the tenant's SLO windows,
/// and the flight recorder. Returns the status for the connection loop.
fn finish_classify(engine: &Engine, trace: String, started_micros: u64, out: Outcome) -> u16 {
    let latency = MONOTONIC_CLOCK.now_micros().saturating_sub(started_micros);
    engine.observe_http("/v1/classify", &out.tenant, out.status, latency);
    engine.slo().observe(&out.tenant, out.status, latency);
    engine.flight().offer(FlightEntry {
        trace,
        tenant: out.tenant,
        route: "/v1/classify".to_string(),
        status: out.status,
        latency_micros: latency,
        started_micros,
        request_summary: out.request_summary,
        response_summary: out.summary,
        spans: out.collector.map_or_else(Vec::new, |c| spans_from_events(&c.events())),
    });
    out.status
}

/// Decode the classify request body ([`ClassifyRequest`]) and resolve
/// its node ids with [`Engine::resolve_node`] (a bounds check, or on
/// shard workers a global→local translation). Errors are client errors
/// (400).
fn parse_classify(req: &Request, engine: &Engine) -> Result<(Vec<NodeId>, String), String> {
    let body = ClassifyRequest::decode(req.body_utf8())?;
    let nodes = body.nodes.iter().map(|&n| engine.resolve_node(n)).collect::<Result<_, _>>()?;
    Ok((nodes, body.tenant.unwrap_or_else(|| "default".into())))
}

/// The absolute deadline (monotonic micros) a classify request runs
/// under, parsed from its `x-mqo-deadline-ms` header. Errors are client
/// errors (400).
fn deadline_for(req: &Request, now_micros: u64) -> Result<Option<u64>, String> {
    let Some(h) = req.header("x-mqo-deadline-ms") else {
        return Ok(None);
    };
    let ms: u64 = h.trim().parse().map_err(|_| {
        format!("invalid x-mqo-deadline-ms '{}': must be a non-negative integer", h.trim())
    })?;
    Ok(Some(now_micros.saturating_add(ms.saturating_mul(1_000))))
}

/// Answer a classify request the [`AdmissionGate`] refused (or whose
/// deadline expired while it executed), counting and announcing it as an
/// event. A shed answers `429` with its computed `Retry-After`, counted
/// as a queue rejection when the wait room was full and as a shed
/// otherwise. An expiry answers `504` naming its stage (`queue`,
/// `admitted`, or `executing`). Nothing is billed on either path: the
/// request never reached the engine or every query in it failed cheaply.
fn refuse(
    engine: &Engine,
    trace: &str,
    tenant: &str,
    request_summary: String,
    refusal: Refusal,
    collector: Option<Recorder>,
) -> Outcome {
    match refusal {
        Refusal::Shed { reason, retry_after_secs } => {
            if reason == "saturated" {
                engine.count_queue_rejection();
            } else {
                engine.count_shed();
            }
            engine.fanout().emit(&Event::RequestShed {
                tenant: tenant.to_string(),
                reason: reason.to_string(),
                retry_after_secs,
            });
            let body = json!({
                "error": "saturated",
                "reason": reason,
                "tenant": tenant,
                "retry_after_secs": retry_after_secs,
                "trace": trace,
            });
            let summary = format!("refused: {reason}, retry after {retry_after_secs}s");
            Outcome {
                retry_after: Some(retry_after_secs),
                ..Outcome::refused(429, &body, tenant, request_summary, summary)
            }
        }
        Refusal::Expired { stage, waited_micros } => {
            engine.count_deadline_expired();
            engine.fanout().emit(&Event::DeadlineExpired {
                trace: trace.to_string(),
                stage: stage.to_string(),
                waited_micros,
            });
            let body = json!({
                "error": "deadline exceeded",
                "stage": stage,
                "tenant": tenant,
                "waited_micros": waited_micros,
                "trace": trace,
            });
            let summary = format!("deadline exceeded at {stage} after {waited_micros}us");
            Outcome {
                collector,
                ..Outcome::refused(504, &body, tenant, request_summary, summary)
            }
        }
    }
}

/// Answer one classify request: decide its [`Outcome`], write it with
/// the trace header (and `Retry-After` when set), then run the
/// [`finish_classify`] epilogue.
fn handle_classify(
    engine: &Engine,
    gate: &AdmissionGate,
    req: &Request,
    conn: &mut HttpConnection,
) -> io::Result<u16> {
    let started = MONOTONIC_CLOCK.now_micros();
    let trace = trace_for(req, engine);
    let mut out = classify(engine, gate, req, &trace, started);
    let retry_after = out.retry_after.map(|secs| ("Retry-After", secs.to_string()));
    let headers: Vec<_> =
        retry_after.into_iter().chain([("x-mqo-trace-id", trace.clone())]).collect();
    out.body.push('\n');
    let status = status_line(out.status);
    conn.respond_with_headers(status, "application/json", &headers, &out.body)?;
    Ok(finish_classify(engine, trace, started, out))
}

/// Decide how a classify request ends, running it if every admission
/// gate lets it through. Writes nothing to the connection.
fn classify(
    engine: &Engine,
    gate: &AdmissionGate,
    req: &Request,
    trace: &str,
    started: u64,
) -> Outcome {
    let deadline = match deadline_for(req, started) {
        Ok(d) => d,
        Err(e) => {
            let body = json!({"error": e, "trace": trace});
            return Outcome::refused(400, &body, "-", "bad x-mqo-deadline-ms".into(), e);
        }
    };
    let (nodes, tenant) = match parse_classify(req, engine) {
        Ok(parsed) => parsed,
        Err(e) => {
            let body = json!({"error": e, "trace": trace});
            return Outcome::refused(400, &body, "-", "unparseable classify body".into(), e);
        }
    };
    let request_summary = format!("classify {} node(s), tenant {}", nodes.len(), tenant);
    match engine.admit(&tenant) {
        Ok(()) => {}
        Err(Rejection::Draining) => {
            let body = json!({"error": "draining", "tenant": tenant, "trace": trace});
            let summary = "refused: draining".into();
            return Outcome::refused(503, &body, &tenant, request_summary, summary);
        }
        Err(Rejection::TenantExhausted(t)) => {
            let body = json!({
                "error": "tenant budget exhausted",
                "tenant": t.tenant,
                "budget": t.budget,
                "spent_tokens": t.spent_tokens,
                "trace": trace,
            });
            let summary =
                format!("refused: {} of {} budget tokens spent", t.spent_tokens, t.budget);
            return Outcome::refused(429, &body, &tenant, request_summary, summary);
        }
    }
    let seat = match gate.enter(&tenant, started, deadline) {
        Ok(seat) => seat,
        Err(refusal) => return refuse(engine, trace, &tenant, request_summary, refusal, None),
    };
    // Brown-out: past the pressure threshold, admitted work runs with
    // pruned neighbor-free prompts. Transitions are announced once.
    if let Some(t) = seat.transition() {
        engine.fanout().emit(&match t {
            BrownoutTransition::Entered { pressure_milli } => {
                Event::BrownoutEnter { pressure_milli }
            }
            BrownoutTransition::Exited { pressure_milli } => {
                Event::BrownoutExit { pressure_milli }
            }
        });
    }
    // Run the batch right here, on the handler's thread, under the
    // seat's bounded telemetry track — no queue, no reply channel. A
    // per-request collector rides alongside the shared fanout so the
    // flight recorder can rebuild this request's span tree afterwards.
    // The request deadline rides a thread-local into the resilient LLM
    // client, which stops metering the moment it cannot finish in time.
    mqo_obs::set_thread_track(seat.slot() + 1);
    let collector = Recorder::with_capacity(4096);
    let mut batch = {
        let _deadline_guard = deadline.map(mqo_llm::with_request_deadline);
        let tee = Tee::new(engine.fanout(), &collector);
        let _span = engine.tracer().span(
            &tee,
            "request",
            || format!("{request_summary} [{trace}]"),
            engine.run_scope(),
        );
        engine.process_shaped(&nodes, &tenant, trace, Some(&collector), seat.degraded())
    };
    // Answer in the id space the client spoke: on shard workers the
    // records come back in local ids and the router joins on "node".
    engine.globalize(&mut batch);
    drop(seat);
    let done = MONOTONIC_CLOCK.now_micros();
    engine.count_request();
    engine.metrics().add_events_dropped(collector.dropped());
    // A deadline that expired mid-execution leaves a batch where every
    // query failed cheaply and nothing was billed: that is a `504`, not
    // a `200` full of fallback predictions.
    if deadline.is_some_and(|d| done >= d)
        && batch.billed_tokens == 0
        && batch.replayed == 0
        && !batch.records.is_empty()
        && batch.records.iter().all(|r| r.failed())
    {
        let waited_micros = done.saturating_sub(started);
        let refusal = Refusal::Expired { stage: "executing", waited_micros };
        return refuse(engine, trace, &tenant, request_summary, refusal, Some(collector));
    }
    let summary = format!(
        "{} record(s), {} replayed, {} tokens billed{}",
        batch.records.len(),
        batch.replayed,
        batch.billed_tokens,
        if batch.degraded { ", degraded" } else { "" }
    );
    let records = batch
        .records
        .iter()
        .map(|r| NodeRecord { node: u64::from(r.node.0), line: record_to_json(r) })
        .collect();
    let body = ClassifyResponse {
        tenant: tenant.clone(),
        records,
        replayed: batch.replayed,
        billed_tokens: batch.billed_tokens,
        degraded: batch.degraded,
        trace: trace.to_string(),
        shards: Vec::new(),
    }
    .encode();
    Outcome {
        status: 200,
        body,
        retry_after: None,
        tenant,
        request_summary,
        summary,
        collector: Some(collector),
    }
}

/// Ingest remote pseudo-labels forwarded by the router
/// (`POST /v1/labels`, a [`LabelBatch`]).
/// Only shard workers expose the route; the exchange is control-plane
/// traffic, so it bypasses the classify admission gates (it bills
/// nothing and must keep flowing while classify sheds).
fn handle_labels(engine: &Engine, req: &Request, conn: &mut HttpConnection) -> io::Result<u16> {
    if engine.shard().is_none() {
        return json_response(conn, "404 Not Found", &json!({"error": "not a shard worker"}))
            .map(|()| 404);
    }
    let batch = match LabelBatch::decode(req.body_utf8()) {
        Ok(batch) => batch,
        Err(e) => {
            return json_response(conn, "400 Bad Request", &json!({"error": e})).map(|()| 400)
        }
    };
    let ingested = engine.ingest_remote_labels(&batch.labels);
    let body = json!({"ingested": ingested, "received": batch.labels.len()});
    json_response(conn, "200 OK", &body).map(|()| 200)
}

/// Answer one parsed request: route it, and stamp everything but
/// classify (which observes itself, knowing the tenant) into the request
/// metrics under the tenantless label.
fn handle_request(
    engine: &Engine,
    gate: &AdmissionGate,
    req: &Request,
    conn: &mut HttpConnection,
) -> io::Result<()> {
    // During a drain, finish this response but stop reusing the
    // connection so the handler joins promptly.
    if engine.draining() {
        conn.set_keep_alive(false);
    }
    let started = MONOTONIC_CLOCK.now_micros();
    let status = route(engine, gate, req, conn)?;
    if req.path != "/v1/classify" {
        let latency = MONOTONIC_CLOCK.now_micros().saturating_sub(started);
        engine.observe_http(route_label(&req.path), "-", status, latency);
    }
    Ok(())
}

/// Route one parsed request, write its response, and return the HTTP
/// status for the request metrics.
fn route(
    engine: &Engine,
    gate: &AdmissionGate,
    req: &Request,
    conn: &mut HttpConnection,
) -> io::Result<u16> {
    if let Some(done) = respond_metrics(engine.metrics(), req, conn) {
        return done.map(|()| 200);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/classify") => handle_classify(engine, gate, req, conn),
        ("GET", "/v1/healthz") => {
            let (status_text, code) =
                if engine.draining() { ("draining", 503) } else { ("ok", 200) };
            let mut body = json!({"status": status_text});
            // A shard worker announces who it is, so the router (and an
            // operator curling a worker directly) can tell the shards
            // apart.
            if let (Some(shard), Value::Object(o)) = (engine.shard_json(), &mut body) {
                o.insert("shard".into(), shard);
            }
            let status_line = if code == 503 { "503 Service Unavailable" } else { "200 OK" };
            json_response(conn, status_line, &body).map(|()| code)
        }
        ("GET", "/v1/stats") => {
            let body = engine.stats_json(Some((gate.waiting(), gate.wait_cap())), gate.slots());
            conn.respond("200 OK", "application/json", &body).map(|()| 200)
        }
        ("GET", "/v1/slo") => {
            let mut body = engine.slo().report_json();
            body.push('\n');
            conn.respond("200 OK", "application/json", &body).map(|()| 200)
        }
        ("GET", "/v1/debug/flight") => {
            let mut body = engine.flight().to_json();
            body.push('\n');
            conn.respond("200 OK", "application/json", &body).map(|()| 200)
        }
        ("POST", "/v1/labels") => handle_labels(engine, req, conn),
        ("POST", "/v1/drain") => {
            engine.request_drain();
            json_response(conn, "202 Accepted", &json!({"draining": true})).map(|()| 202)
        }
        ("POST" | "GET", _) => conn
            .respond(
                "404 Not Found",
                "text/plain",
                "try /v1/classify, /v1/healthz, /v1/stats, /v1/slo, /metrics\n",
            )
            .map(|()| 404),
        _ => conn
            .respond("405 Method Not Allowed", "text/plain", "only GET/POST\n")
            .map(|()| 405),
    }
}
