//! Admission-gate end-to-end tests over loopback HTTP: tenant fair-share
//! shedding while the wait room is contended, wait-room saturation, and
//! the `/v1/stats` refusal counters that account for every shed.

use mqo_data::{dataset, DatasetId};
use mqo_obs::{http_get, http_post};
use mqo_serve::{Engine, OverloadConfig, ServeConfig, Server, ServerOptions};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn classify_as(addr: SocketAddr, tenant: &str, nodes: &[u32]) -> String {
    let list: Vec<String> = nodes.iter().map(u32::to_string).collect();
    let body = format!("{{\"nodes\": [{}], \"tenant\": \"{tenant}\"}}", list.join(", "));
    http_post(addr, "/v1/classify", &body).expect("classify round-trip").0
}

fn stats(addr: SocketAddr) -> serde_json::Value {
    let (status, text) = http_get(addr, "/v1/stats").expect("stats round-trip");
    assert!(status.contains("200"), "got {status}");
    serde_json::from_str(text.trim()).expect("stats are JSON")
}

/// POST and return the raw response (status line + headers + body), so
/// the `Retry-After` header is visible.
fn raw_post(addr: SocketAddr, body: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /v1/classify HTTP/1.1\r\nHost: mqo\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// A one-slot server whose every LLM call takes 30ms (cache off, so
/// every call reaches the injector): an 8-node batch holds the slot
/// ~240ms. A sojourn target nothing here reaches leaves shedding to the
/// fair-share and wait-room rules.
fn start(queue_capacity: usize) -> Server {
    let cfg = ServeConfig {
        split_queries: 60,
        faults: Some("latency=1.0,latency-micros=30000".into()),
        cache_cap: 0,
        ..ServeConfig::default()
    };
    let engine =
        Engine::new(dataset(DatasetId::Cora, Some(0.3), 42), cfg).map(Arc::new).unwrap();
    let overload =
        OverloadConfig { sojourn_target_micros: 60_000_000, ..OverloadConfig::default() };
    let options =
        ServerOptions { addr: "127.0.0.1:0".into(), workers: 1, queue_capacity, overload };
    Server::start(engine, options).expect("bind loopback server")
}

/// Wait until `depth` requests are parked in the wait room, while the
/// slot holder `long` is still running.
fn await_depth(addr: SocketAddr, depth: u64, long: &std::thread::JoinHandle<String>) {
    while stats(addr)["queue"]["depth"].as_u64() != Some(depth) {
        assert!(!long.is_finished(), "the slot holder finished before the room was contended");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Check that a raw `429` carries a `Retry-After` in the documented
/// `[1, 30]` band.
fn assert_retry_after(raw: &str) {
    let secs: u64 = raw
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .expect("429 must carry Retry-After")
        .trim()
        .parse()
        .expect("Retry-After is integral seconds");
    assert!((1..=30).contains(&secs), "Retry-After {secs} outside [1, 30]");
}

/// One slot and a four-seat wait room give each tenant two seats. A hot
/// tenant holding the slot and one wait seat is shed with
/// `tenant_share` and a computed `Retry-After`, while another tenant is
/// still admitted into the same contended room; `/v1/stats` counts
/// exactly the 429s the client saw.
#[test]
fn hot_tenant_past_its_share_is_shed_while_others_are_admitted() {
    let server = start(4);
    let addr = server.addr();

    // The hot tenant takes the slot, then one wait seat.
    let long = std::thread::spawn(move || classify_as(addr, "hot", &[0, 1, 2, 3, 4, 5, 6, 7]));
    std::thread::sleep(Duration::from_millis(20));
    let queued = std::thread::spawn(move || classify_as(addr, "hot", &[8]));
    await_depth(addr, 1, &long);

    // Past its share of a contended room: shed, with a computed
    // Retry-After in the documented band.
    let raw = raw_post(addr, "{\"node\": 9, \"tenant\": \"hot\"}");
    assert!(!long.is_finished(), "the room must still be contended when the probe lands");
    assert!(raw.starts_with("HTTP/1.1 429"), "got {raw}");
    assert!(raw.contains("\"reason\":\"tenant_share\""), "got {raw}");
    assert_retry_after(&raw);
    let sheds_seen = 1;

    // Another tenant still gets a seat in the same contended room.
    let cool = std::thread::spawn(move || classify_as(addr, "cool", &[10]));
    for (name, client) in [("hot batch", long), ("queued hot", queued), ("cool", cool)] {
        let status = client.join().expect("client thread");
        assert!(status.contains("200"), "{name} must be admitted, got {status}");
    }

    let rejected = &stats(addr)["rejected"];
    let counted = rejected["shed"].as_u64().unwrap() + rejected["queue"].as_u64().unwrap();
    assert_eq!(counted, sheds_seen, "stats must count exactly the 429s seen: {rejected:?}");
    server.drain();
}

/// One slot and a one-seat wait room: with the slot and the seat held
/// by two other tenants, a third tenant (within its own share) is shed
/// as `saturated`, counted under `rejected.queue`, and the admitted work
/// still completes.
#[test]
fn full_wait_room_sheds_saturated_and_counts_a_queue_rejection() {
    let server = start(1);
    let addr = server.addr();
    let long = std::thread::spawn(move || classify_as(addr, "a", &[0, 1, 2, 3, 4, 5, 6, 7]));
    std::thread::sleep(Duration::from_millis(20));
    let queued = std::thread::spawn(move || classify_as(addr, "b", &[8]));
    await_depth(addr, 1, &long);

    let raw = raw_post(addr, "{\"node\": 9, \"tenant\": \"c\"}");
    assert!(!long.is_finished(), "the room must still be full when the probe lands");
    assert!(raw.starts_with("HTTP/1.1 429"), "got {raw}");
    assert!(raw.contains("\"reason\":\"saturated\""), "got {raw}");
    assert_retry_after(&raw);

    for (name, client) in [("slot holder", long), ("waiter", queued)] {
        let status = client.join().expect("client thread");
        assert!(status.contains("200"), "{name} must complete, got {status}");
    }
    let rejected = &stats(addr)["rejected"];
    assert_eq!(rejected["queue"].as_u64(), Some(1), "{rejected:?}");
    assert_eq!(rejected["shed"].as_u64(), Some(0), "{rejected:?}");
    server.drain();
}
