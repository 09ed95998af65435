//! `perfbench` — the repository's benchmark: end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload campaign|serve-hot|routed --seed N
//!           --seconds S --trace 0|1 --mqo PATH --out DIR
//!           [--rev REV] [--source HASH]
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A failed output check prints `correct: false` with no metrics and
//! exits non-zero. See `README.md` beside this crate for the workloads
//! and every metric.

mod campaign;
mod http;
mod layers;
mod procs;
mod serve;
mod spans;
mod stats;

use spans::SpanLog;
use stats::{Attribution, Latencies, Window};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("rps", "1/s"),
    ("p50_ms", "ms"),
    ("tokens_per_query", "tokens"),
    ("accuracy", "ratio"),
    ("cpu_us_per_query", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// off a workload's request path reads 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("data.generate_s", "s"),
    ("core.inadequacy.build_s", "s"),
    ("core.pruning.pruned_share", "ratio"),
    ("core.sched.rounds", "count"),
    ("core.sched.llm_busy_share", "ratio"),
    ("core.predictor.calls", "count"),
    ("core.predictor.us", "us"),
    ("llm.prompt.render_us", "us"),
    ("token.count_us", "us"),
    ("llm.parse_us", "us"),
    ("llm.stack.calls", "count"),
    ("llm.stack.busy_s", "s"),
    ("llm.model.calls", "count"),
    ("llm.model.busy_s", "s"),
    ("llm.model.calls_per_query", "ratio"),
    ("llm.stack.overhead_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("obs.httpd.healthz_us", "us"),
    ("serve.server.classify_us", "us"),
    ("serve.engine.process_us", "us"),
    ("obs.flight.collect_us", "us"),
    ("shard.partition_s", "s"),
    ("shard.cut_edge_ratio", "ratio"),
    ("shard.mixed_ratio", "ratio"),
    ("shard.upstream_sum_ms", "ms"),
    ("shard.router.self_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("tracing_overhead_share", "ratio"),
    ("gen.cpu_us_per_req", "us"),
    ("gen.send_gap_us", "us"),
    ("fail_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub mqo: PathBuf,
    pub out: PathBuf,
    rev: String,
    source: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut flags = HashMap::new();
        for pair in raw.chunks(2) {
            match pair {
                [k, v] if k.starts_with("--") => {
                    flags.insert(k.trim_start_matches("--").to_string(), v.clone());
                }
                _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
            }
        }
        let mut take = |k: &str| flags.remove(k).ok_or(format!("missing --{k}"));
        let args = Args {
            workload: take("workload")?,
            seed: take("seed")?.parse().map_err(|_| "bad --seed")?,
            seconds: take("seconds")?.parse().map_err(|_| "bad --seconds")?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad --trace '{other}' (want 0 or 1)")),
            },
            mqo: take("mqo")?.into(),
            out: take("out")?.into(),
            rev: take("rev").unwrap_or_else(|_| "unknown".into()),
            source: take("source").unwrap_or_else(|_| "unknown".into()),
        };
        if let Some(k) = flags.keys().next() {
            return Err(format!("unknown flag --{k}"));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(args)
    }
}

/// What a workload run produced.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// The output checks' verdict.
    pub check: Result<(), String>,
    /// Traced runs: how the whole splits into layer self times.
    pub attribution: Option<Attribution>,
    /// Traced runs: the spans to write out.
    pub spans: Option<Arc<SpanLog>>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            lines: Vec::new(),
            check: Ok(()),
            attribution: None,
            spans: None,
        }
    }
}

impl Report {
    /// Record metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// `qps`, `rps`, `p50_ms` and `cpu_us_per_query` over the quietest
    /// half of `windows` (see [`stats::quietest_half`]): rates are totals
    /// over their time, percentiles pool their samples. Also prints p99 and
    /// the highest tail the sample supports; p99 is reported, not gated.
    /// Refuses a sample too small for p99 or a p99 on a failed request.
    pub fn rate_metrics(&mut self, windows: Vec<Window>) -> Result<(), String> {
        let measured = windows.len();
        let (kept, dropped) = stats::quietest_half(windows);
        let mut all = Latencies::default();
        for w in &kept {
            all.extend(&w.lat);
        }
        if !all.supports(99.0) {
            return Err(format!("{} samples are too few for p99", all.len()));
        }
        let p50 = all.percentile(50.0).ok_or("p50 lands on a failed request")?;
        let p99 = all.percentile(99.0).ok_or("p99 lands on a failed request")?;
        let tail = all.tail().expect("p99 is supported");
        let sum = |f: &dyn Fn(&Window) -> f64| kept.iter().map(f).sum::<f64>();
        let secs = sum(&|w| w.secs);
        let queries = sum(&|w| w.queries as f64);
        let pct = |w: &[Window]| -> Vec<f64> {
            w.iter().map(|w| (1000.0 * w.steal).round() / 10.0).collect()
        };
        self.lines.push(format!(
            "windows         : kept the {} of {measured} with the least host steal; steal % kept {:?}, dropped {:?}",
            kept.len(),
            pct(&kept),
            pct(&dropped),
        ));
        self.lines.push(format!(
            "latency         : p50 {p50:.4} ms, p99 {p99:.4} ms; highest supported tail p{} = {} over {} samples ({} beyond)",
            tail.pct,
            tail.value_ms.map_or("a failed request".into(), |v| format!("{v:.4} ms")),
            tail.n,
            tail.beyond,
        ));
        self.lines.push(format!("p99_ms          : {p99} ms (reported, not gated)"));
        self.metric("qps", queries / secs);
        self.metric("rps", sum(&|w| w.answered as f64) / secs);
        self.metric("p50_ms", p50);
        self.metric("cpu_us_per_query", sum(&|w| w.cpu_s) * 1e6 / queries.max(1.0));
        Ok(())
    }

    /// Take attempted and failed counts and failed checks from `phase`.
    pub fn finish_phase(&mut self, phase: &http::Phase) {
        self.attempted = phase.attempted;
        self.failed = phase.failed;
        if let Some(c) = phase.checks.first() {
            self.check =
                Err(format!("{} failed output check(s), first: {c}", phase.checks.len()));
        }
        self.lines.push(format!(
            "operations      : {} attempted, {} failed ({} refused), fail_ratio {}",
            phase.attempted,
            phase.failed,
            phase.refused,
            stats::fail_ratio(phase.attempted, phase.failed)
        ));
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_string())).unwrap_or_default()
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    match args.workload.as_str() {
        "campaign" => campaign::run(args),
        "serve-hot" => serve::run(args, serve::Kind::ServeHot),
        "routed" => serve::run(args, serve::Kind::Routed),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Online CPUs, not this process's affinity mask.
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map_or(0, |s| s.lines().filter(|l| l.starts_with("processor")).count());
    let provenance = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"rev\":{},\"source\":{},\"nproc\":{nproc},\"cpu\":{},\"unix_time\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&args.rev),
        json_str(&args.source),
        json_str(&cpu_model()),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    );
    println!("provenance      : {provenance}");

    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => Report { check: Err(e), ..Report::default() },
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if report.check.is_ok() {
        if args.trace {
            report.metric("fail_ratio", stats::fail_ratio(report.attempted, report.failed));
        }
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let wanted: Vec<&str> = expected.iter().map(|m| m.0).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        let mut sorted_wanted = wanted.clone();
        sorted_wanted.sort_unstable();
        if sorted != sorted_wanted {
            report.check = Err(format!("reported metrics {names:?}, expected {wanted:?}"));
        } else if let Some((name, v)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
            report.check = Err(format!("metric {name} is not finite ({v})"));
        }
    }
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(a) = &report.attribution {
        let parts: Vec<String> =
            a.parts.iter().map(|(n, v)| format!("{n} {:.1}%", 100.0 * v / a.whole)).collect();
        println!(
            "attribution     : {} of {:.6}; unattributed {:.1}%",
            parts.join(", "),
            a.whole,
            100.0 * a.unattributed_share()
        );
    }
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if let Some(log) = &report.spans {
        let path = args.out.join(format!("spans-{stem}.jsonl"));
        match log.write_jsonl(&path) {
            Ok(()) => println!("spans           : {}", path.display()),
            Err(e) => println!("spans           : cannot write {}: {e}", path.display()),
        }
    }
    let result = match &report.check {
        Ok(()) => {
            let units: HashMap<&str, &str> = expected.iter().copied().collect();
            let mut ordered = report.metrics.clone();
            ordered.sort_by_key(|(n, _)| expected.iter().position(|e| e.0 == *n));
            for (name, v) in &ordered {
                println!("{name:<28} {v:>16.6} {}", units[name]);
            }
            let metrics: Vec<String> = ordered
                .iter()
                .map(|(n, v)| {
                    format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", units[n])
                })
                .collect();
            format!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                report.attempted.max(1),
                report.failed,
                metrics.join(", ")
            )
        }
        Err(e) => {
            println!("check failed    : {e}");
            format!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                report.attempted.max(1),
                report.failed.max(1)
            )
        }
    };
    let record = format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n");
    let _ = std::fs::write(args.out.join(format!("result-{stem}.json")), record);
    println!("{result}");
    if report.check.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
