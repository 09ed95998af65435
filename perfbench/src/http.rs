//! A minimal HTTP/1.1 keep-alive client and the closed-loop load generator.
//!
//! The client is the benchmark's own (std only), so a change to the
//! program's HTTP code cannot change the load generator measuring it.

use crate::stats::Latencies;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One keep-alive connection that reconnects after an error.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    req: Vec<u8>,
    body_start: usize,
}

impl Conn {
    /// A connection to `addr`, opened lazily.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(8192),
            req: Vec::new(),
            body_start: 0,
        }
    }

    /// The response body of the last successful request.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    /// Send one request and read the whole response. Returns the status;
    /// the body stays readable through [`body`](Self::body). Any error
    /// drops the connection; the next request opens a fresh one.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<u16> {
        let out = self.exchange(method, path, body);
        if out.is_err() {
            self.stream = None;
        }
        out
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<u16> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        self.req.clear();
        write!(
            self.req,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        stream.write_all(&self.req)?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let header_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-headers"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 headers"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < header_end + length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        self.body_start = header_end;
        if close {
            self.stream = None;
        }
        Ok(status)
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// GET `path` on a fresh connection; status and body.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut c = Conn::new(addr);
    let status = c.request("GET", path, "")?;
    Ok((status, String::from_utf8_lossy(c.body()).into_owned()))
}

/// The body of a classify request for `nodes`.
pub fn classify_body(nodes: &[u32]) -> String {
    let list: Vec<String> = nodes.iter().map(u32::to_string).collect();
    format!("{{\"nodes\":[{}],\"tenant\":\"bench\"}}", list.join(","))
}

/// What a classify response says about its records, in order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Served {
    /// `"node"` of each record.
    pub nodes: Vec<u32>,
    /// `"predicted"` of each record.
    pub predicted: Vec<u32>,
    /// Records marked `"correct": true`.
    pub correct: u32,
}

/// Read the records of a classify response body.
pub fn scan_records(body: &[u8]) -> Served {
    Served {
        nodes: numbers_after(body, b"\"node\":"),
        predicted: numbers_after(body, b"\"predicted\":"),
        correct: count(body, b"\"correct\":true") as u32,
    }
}

fn numbers_after(body: &[u8], key: &[u8]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(p) = find(&body[i..], key) {
        let mut j = i + p + key.len();
        while body.get(j) == Some(&b' ') {
            j += 1;
        }
        let mut v: u32 = 0;
        while let Some(d) = body.get(j).filter(|d| d.is_ascii_digit()) {
            v = v.wrapping_mul(10).wrapping_add(u32::from(d - b'0'));
            j += 1;
        }
        out.push(v);
        i = j;
    }
    out
}

fn count(body: &[u8], needle: &[u8]) -> usize {
    body.windows(needle.len()).filter(|w| *w == needle).count()
}

/// Check a classify response: one record per requested node, in request
/// order, with the ids the client sent.
pub fn check_records(asked: &[u32], body: &[u8]) -> Result<Served, String> {
    let served = scan_records(body);
    if served.nodes != asked || served.predicted.len() != asked.len() {
        return Err(format!("asked for nodes {asked:?}, response carried {:?}", served.nodes));
    }
    Ok(served)
}

/// The outcome of one closed-loop operation.
pub struct Op {
    /// When the first byte of the operation was about to be sent.
    pub sent: Instant,
    /// When its last response landed.
    pub landed: Instant,
    /// Its latency; `None` when it failed or was refused.
    pub latency: Option<Duration>,
    /// Whether the server refused it (429, 503 or 504).
    pub refused: bool,
    /// Queries the operation answered.
    pub queries: u64,
    /// Of those, answered correctly.
    pub correct: u64,
    /// A failed output check.
    pub check: Option<String>,
}

/// When a closed-loop phase stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After operations `0..n` have been claimed.
    Count(usize),
    /// Once this instant has passed.
    At(Instant),
}

/// What a phase of closed-loop load measured.
#[derive(Default)]
pub struct Phase {
    /// Per-operation latencies, failures as missing.
    pub lat: Latencies,
    /// Operations sent.
    pub attempted: u64,
    /// Operations failed, refused or malformed.
    pub failed: u64,
    /// Of `failed`, refused by the server.
    pub refused: u64,
    /// Queries answered.
    pub queries: u64,
    /// Queries answered correctly.
    pub correct: u64,
    /// First failed output checks (at most five).
    pub checks: Vec<String>,
    /// Wall time from the phase's start to its last response.
    pub wall: Duration,
    /// Load-generator CPU time, summed over its threads.
    pub gen_cpu: Duration,
    /// Gaps between a response landing and that thread's next send, µs.
    pub gaps_us: Vec<f64>,
}

impl Phase {
    /// Operations answered per second of the phase.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64()
    }

    /// Fold a later phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.lat.extend(&other.lat);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.queries += other.queries;
        self.correct += other.correct;
        for c in other.checks {
            if self.checks.len() < 5 {
                self.checks.push(c);
            }
        }
        self.wall += other.wall;
        self.gen_cpu += other.gen_cpu;
        self.gaps_us.extend(other.gaps_us);
    }
}

/// CPU time of the calling thread, from `/proc/thread-self/schedstat`.
pub fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// Drive `threads` closed-loop clients: each claims the next operation
/// index, runs `op` with its own state, and starts the next operation as
/// soon as the previous one returns. Operation `k` must depend only on
/// `k`, so a seed gives the same operations however threads interleave.
pub fn closed_loop<S, F>(
    threads: usize,
    first: usize,
    stop: Stop,
    mut make_state: impl FnMut() -> S,
    op: F,
) -> Phase
where
    S: Send,
    F: Fn(usize, &mut S) -> Op + Sync,
{
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let states: Vec<S> = (0..threads).map(|_| make_state()).collect();
    let parts: Vec<(Phase, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (next, op) = (&next, &op);
                scope.spawn(move || {
                    let cpu0 = thread_cpu();
                    let mut phase = Phase::default();
                    let mut last_landed: Option<Instant> = None;
                    let mut end = start;
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let done = match stop {
                            Stop::Count(n) => k >= n,
                            Stop::At(t) => Instant::now() >= t,
                        };
                        if done {
                            break;
                        }
                        let o = op(k, &mut state);
                        if let Some(prev) = last_landed {
                            phase.gaps_us.push((o.sent - prev).as_secs_f64() * 1e6);
                        }
                        last_landed = Some(o.landed);
                        end = end.max(o.landed);
                        phase.attempted += 1;
                        phase.queries += o.queries;
                        phase.correct += o.correct;
                        match (o.latency, o.check) {
                            (Some(l), None) => phase.lat.push_ms(l.as_secs_f64() * 1e3),
                            (_, check) => {
                                phase.failed += 1;
                                phase.refused += u64::from(o.refused);
                                phase.lat.push_missing();
                                if let Some(c) = check {
                                    phase.checks.push(c);
                                    phase.checks.truncate(5);
                                }
                            }
                        }
                    }
                    phase.gen_cpu = thread_cpu().saturating_sub(cpu0);
                    (phase, end)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut total = Phase::default();
    let mut end = start;
    for (p, e) in parts {
        end = end.max(e);
        total.absorb(p);
    }
    total.wall = end.saturating_duration_since(start).max(Duration::from_nanos(1));
    total
}

/// One classify request over `conn`, checked against `nodes`.
pub fn classify_op(conn: &mut Conn, nodes: &[u32]) -> Op {
    let body = classify_body(nodes);
    let sent = Instant::now();
    let result = conn.request("POST", "/v1/classify", &body);
    let landed = Instant::now();
    let mut op =
        Op { sent, landed, latency: None, refused: false, queries: 0, correct: 0, check: None };
    match result {
        Ok(200) => match check_records(nodes, conn.body()) {
            Ok(served) => {
                op.latency = Some(landed - sent);
                op.queries = nodes.len() as u64;
                op.correct = u64::from(served.correct);
            }
            Err(e) => op.check = Some(e),
        },
        Ok(status) => op.refused = matches!(status, 429 | 503 | 504),
        Err(_) => {}
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_records_in_order() {
        let body = br#"{"records":[{"correct":true,"node":7,"predicted":2},{"correct":false,"node":3,"predicted":0}],"tenant":"bench"}"#;
        let s = scan_records(body);
        assert_eq!(s.nodes, vec![7, 3]);
        assert_eq!(s.predicted, vec![2, 0]);
        assert_eq!(s.correct, 1);
        assert!(check_records(&[7, 3], body).is_ok());
        assert!(check_records(&[3, 7], body).is_err(), "order matters");
        assert!(check_records(&[7], body).is_err(), "one record per node");
    }

    #[test]
    fn classify_body_lists_nodes() {
        assert_eq!(classify_body(&[1, 22]), r#"{"nodes":[1,22],"tenant":"bench"}"#);
    }

    #[test]
    fn closed_loop_counts_failures_and_refusals_as_missing() {
        let t0 = Instant::now();
        let phase = closed_loop(
            2,
            0,
            Stop::Count(100),
            || (),
            |k, _| {
                let mut op = Op {
                    sent: Instant::now(),
                    landed: Instant::now(),
                    latency: Some(Duration::from_millis(1)),
                    refused: false,
                    queries: 1,
                    correct: 1,
                    check: None,
                };
                if k % 10 == 0 {
                    // Refused by the server.
                    op.latency = None;
                    op.refused = true;
                    op.queries = 0;
                    op.correct = 0;
                } else if k % 25 == 1 {
                    // Transport failure.
                    op.latency = None;
                    op.queries = 0;
                    op.correct = 0;
                }
                op
            },
        );
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(phase.attempted, 100);
        assert_eq!((phase.failed, phase.refused), (14, 10));
        assert_eq!(phase.queries, 86);
        assert_eq!(phase.lat.len(), 100);
        let mut lat = phase.lat.clone();
        assert_eq!(lat.percentile(86.0), Some(1.0));
        assert_eq!(lat.percentile(87.0), None);
        assert_eq!(crate::stats::fail_ratio(phase.attempted, phase.failed), 0.14);
    }
}
