//! The live metrics endpoint: `GET /metrics` and `GET /progress` for a
//! [`MetricsSink`], served on the shared [`HttpServer`].
//!
//! [`serve_metrics`] answers `GET /metrics` with the Prometheus text
//! exposition of the sink's registry and `GET /progress` with its
//! compact JSON snapshot — exactly enough for `curl` and a Prometheus
//! scraper, with zero dependencies. [`respond_metrics`] is the same pair
//! of routes for a server that has more of its own (the classification
//! service in `mqo-serve`).
//!
//! Serving failures are not silent: every connection that dies with an
//! I/O error or malformed framing increments the `mqo_http_errors_total`
//! counter on the sink's own registry, so a flaky scraper (or a broken
//! response path) shows up in the very endpoint it scrapes.

use crate::httpd::{http_errors_total, HttpConnection, HttpServer, Request};
use crate::registry::MetricsSink;
use std::io;
use std::sync::Arc;

/// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
/// serve `GET /metrics` and `GET /progress` for `sink` in the
/// background. The socket closes when the returned server is dropped.
pub fn serve_metrics(addr: &str, sink: Arc<MetricsSink>) -> io::Result<HttpServer> {
    let errors = http_errors_total(sink.registry());
    HttpServer::start(addr, errors, move |req, conn| match respond_metrics(&sink, req, conn) {
        Some(done) => done,
        None if req.method != "GET" => {
            conn.respond("405 Method Not Allowed", "text/plain", "only GET\n")
        }
        None => conn.respond("404 Not Found", "text/plain", "try /metrics or /progress\n"),
    })
}

/// Answer `GET /metrics` (Prometheus text) or `GET /progress` (compact
/// JSON) from `sink`; `None` when `req` is neither, so the caller routes
/// it.
pub fn respond_metrics(
    sink: &MetricsSink,
    req: &Request,
    conn: &mut HttpConnection,
) -> Option<io::Result<()>> {
    if req.method != "GET" {
        return None;
    }
    match req.path.as_str() {
        "/metrics" => Some(conn.respond(
            "200 OK",
            "text/plain; version=0.0.4",
            &sink.registry().render_prometheus(),
        )),
        "/progress" => {
            let mut body = sink.progress_json();
            body.push('\n');
            Some(conn.respond("200 OK", "application/json", &body))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::httpd::http_get;
    use crate::sink::EventSink;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::thread;
    use std::time::Duration;

    fn sink_with_traffic() -> Arc<MetricsSink> {
        let sink = Arc::new(MetricsSink::new());
        sink.emit(&Event::QueryExecuted {
            node: 1,
            prompt_tokens: 120,
            pruned: false,
            parse_failed: false,
            wall_micros: 80,
        });
        sink.emit(&Event::RoundCompleted {
            round: 0,
            executed: 1,
            gamma1: 3,
            gamma2: 2,
            pseudo_label_uses: 0,
        });
        sink
    }

    #[test]
    fn serves_prometheus_text_and_progress_json() {
        let sink = sink_with_traffic();
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&sink)).unwrap();
        let (status, body) = http_get(server.addr(), "/metrics").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("mqo_queries_total 1"), "body: {body}");
        assert!(body.contains("# TYPE mqo_prompt_tokens histogram"));
        let (status, body) = http_get(server.addr(), "/progress").unwrap();
        assert!(status.contains("200"));
        assert!(body.contains("\"queries\":1"), "body: {body}");
        assert!(body.contains("\"rounds_completed\":1"));
    }

    #[test]
    fn unknown_paths_get_404() {
        let server = serve_metrics("127.0.0.1:0", Arc::new(MetricsSink::new())).unwrap();
        let (status, _) = http_get(server.addr(), "/nope").unwrap();
        assert!(status.contains("404"), "status: {status}");
    }

    #[test]
    fn scrapes_see_live_updates() {
        let sink = Arc::new(MetricsSink::new());
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&sink)).unwrap();
        let (_, before) = http_get(server.addr(), "/metrics").unwrap();
        assert!(before.contains("mqo_queries_total 0"));
        sink.emit(&Event::QueryExecuted {
            node: 9,
            prompt_tokens: 64,
            pruned: true,
            parse_failed: false,
            wall_micros: 10,
        });
        let (_, after) = http_get(server.addr(), "/metrics").unwrap();
        assert!(after.contains("mqo_queries_total 1"), "scrape is live: {after}");
    }

    #[test]
    fn connection_errors_are_counted_not_swallowed() {
        let sink = Arc::new(MetricsSink::new());
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&sink)).unwrap();
        // A client that sends garbage framing and hangs up: the request
        // parse fails, the connection dies, and the error is counted.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"\r\n").unwrap();
        drop(stream);
        // The error lands asynchronously in the accept thread; poll the
        // live exposition until the counter moves.
        let mut seen = String::new();
        for _ in 0..100 {
            let (_, body) = http_get(server.addr(), "/metrics").unwrap();
            seen = body;
            if seen.contains("mqo_http_errors_total 1") {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert!(seen.contains("mqo_http_errors_total 1"), "errors stayed invisible: {seen}");
    }

    #[test]
    fn drop_frees_the_port() {
        let server = serve_metrics("127.0.0.1:0", Arc::new(MetricsSink::new())).unwrap();
        let addr = server.addr();
        drop(server);
        // The listener is gone; a fresh bind to the same port succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after drop");
    }
}
