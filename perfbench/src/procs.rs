//! Child processes of the program under test: start, wait until ready,
//! read peak memory, and stop (always waiting for exit).

use crate::http;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a process may take to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `mqo` process, killed and reaped on drop.
pub struct Proc {
    name: String,
    child: Child,
    /// Its listening address.
    pub addr: SocketAddr,
}

impl Proc {
    /// Start `mqo args... --addr 127.0.0.1:0 --addr-file F` and wait until
    /// `GET /v1/healthz` answers 200. Output goes to `<dir>/<name>.log`.
    pub fn start(mqo: &Path, dir: &Path, name: &str, args: &[&str]) -> Result<Proc, String> {
        let addr_file = dir.join(format!("{name}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::File::create(dir.join(format!("{name}.log")))
            .map_err(|e| format!("cannot create log for {name}: {e}"))?;
        let err_log = log.try_clone().map_err(|e| format!("log for {name}: {e}"))?;
        let child = Command::new(mqo)
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err_log)
            .spawn()
            .map_err(|e| format!("cannot start {} for {name}: {e}", mqo.display()))?;
        let mut proc = Proc { name: name.to_string(), child, addr: ([127, 0, 0, 1], 0).into() };
        proc.addr = proc.wait_ready(&addr_file)?;
        Ok(proc)
    }

    fn wait_ready(&mut self, addr_file: &Path) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut addr: Option<SocketAddr> = None;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("{} exited before it was ready ({status})", self.name));
            }
            if addr.is_none() {
                addr =
                    std::fs::read_to_string(addr_file).ok().and_then(|s| s.trim().parse().ok());
            }
            if let Some(a) = addr {
                if matches!(http::get(a, "/v1/healthz"), Ok((200, _))) {
                    return Ok(a);
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Err(format!("{} was not ready within {READY_TIMEOUT:?}", self.name))
    }

    /// CPU time so far, seconds.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(&self.child.id().to_string())
    }

    /// Peak resident set size so far, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU time (user + system, all threads) of a process, seconds, from
/// `/proc/<pid>/stat` in clock ticks of 1/100 s; `pid` may be `self`.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|v| v.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Steal and total time of all CPUs so far, in clock ticks, from
/// `/proc/stat`: time the hypervisor gave this machine's vCPUs to others.
pub fn host_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .map(|l| l.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen between two [`host_steal`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `mqo args...` to completion; its output goes to `<dir>/<name>.log`.
pub fn run_to_end(mqo: &Path, dir: &Path, name: &str, args: &[&str]) -> Result<(), String> {
    let log = std::fs::File::create(dir.join(format!("{name}.log")))
        .map_err(|e| format!("cannot create log for {name}: {e}"))?;
    let err_log = log.try_clone().map_err(|e| format!("log for {name}: {e}"))?;
    let status = Command::new(mqo)
        .args(args)
        .stdin(Stdio::null())
        .stdout(log)
        .stderr(err_log)
        .status()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "{name} failed ({status}); see {}",
            dir.join(format!("{name}.log")).display()
        ))
    }
}

/// A fresh scratch directory for one workload's files.
pub fn scratch(out: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = out.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}
