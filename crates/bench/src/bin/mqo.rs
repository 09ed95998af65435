//! `mqo` — command-line interface to the library.
//!
//! ```text
//! mqo generate | inspect | classify | serve | partition | route | plan | tables
//! ```
//!
//! Run `mqo` with no arguments for every subcommand's flags; the usage
//! text is rendered from the same per-subcommand flag table the parser
//! ([`mqo_bench::cli`]) checks, so an unknown flag is an error (exit 2),
//! never ignored.
//!
//! Datasets: cora, citeseer, pubmed, ogbn-arxiv, ogbn-products.
//! Methods: zero-shot, 1hop, 2hop, sns, llmrank.
//!
//! Scale-out: `mqo partition` cuts a dataset into per-shard bundles plus
//! a shard map; `mqo serve --shard-id I --shard-map F [--router A]`
//! serves one shard (pushing boundary pseudo-labels to the router when
//! boosting); `mqo route` fronts the workers with ownership routing,
//! batch fan-out, health ejection, and the label exchange relay.

use mqo_bench::cli::{self, switch, value, Command};
use mqo_bench::harness::Trace;
use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::journal::{RunHeader, RunJournal};
use mqo_core::metrics::ConfusionMatrix;
use mqo_core::planner::plan_campaign;
use mqo_core::pruning::PrunePlan;
use mqo_core::surrogate::SurrogateConfig;
use mqo_core::{Executor, InadequacyScorer, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{dataset, paper_max_neighbors, persist, DatasetBundle, DatasetId};
use mqo_fault::{FaultConfig, FaultSchedule};
use mqo_graph::NodeId;
use mqo_llm::{LanguageModel, ModelProfile, SimLlm};
use mqo_obs::{
    serve_metrics, ChromeTraceSink, CostLedger, EventSink, Fanout, MetricsSink, MonotonicClock,
    SpanId, Tracer,
};
use mqo_serve::{
    client_stack, make_predictor, split_for, ServeConfig, ServerOptions, StackSpec,
};
use mqo_token::GPT_35_TURBO_0125;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const COMMANDS: &[Command] = &[
    Command {
        verb: "generate",
        args: "<dataset>",
        flags: &[value("scale", "S"), value("seed", "N"), value("out", "FILE")],
    },
    Command { verb: "inspect", args: "FILE", flags: &[] },
    Command {
        verb: "classify",
        args: "<dataset|FILE>",
        flags: &[
            value("method", "zero-shot|1hop|2hop|sns|llmrank"),
            value("queries", "N"),
            value("prune", "TAU"),
            switch("boost"),
            value("model", "gpt35|gpt4o-mini"),
            value("threads", "T"),
            switch("deterministic"),
            value("budget", "B"),
            value("retries", "N"),
            value("trace", "FILE"),
            value("trace-chrome", "FILE"),
            value("serve-metrics", "ADDR"),
            value("cost-json", "FILE"),
            value("cache-cap", "N"),
            switch("no-cache"),
            value("repeat", "K"),
            value("batch", "B"),
            value("stats-json", "FILE"),
            value("faults", "error=R,malformed=R,rate-limit=R,latency=R,truncate=R,outage=S+L"),
            value("fault-kill-after", "N"),
            value("journal", "FILE"),
            switch("resume"),
            value("dump-records", "FILE"),
            value("seed", "N"),
            value("scale", "S"),
        ],
    },
    Command {
        verb: "serve",
        args: "<dataset|FILE>",
        flags: &[
            value("addr", "A"),
            value("method", "M"),
            value("queries", "N"),
            value("workers", "W"),
            value("queue-cap", "Q"),
            value("budget", "B"),
            switch("boost"),
            value("tenants", "a=1000,b=500"),
            value("tenant-budget", "N"),
            value("cache-cap", "N"),
            switch("no-cache"),
            value("retries", "N"),
            value("faults", "SPEC"),
            value("journal", "FILE"),
            switch("resume"),
            value("trace-chrome", "FILE"),
            value("slo-p99-ms", "MS"),
            value("slo-availability", "F"),
            value("flight-slow", "N"),
            value("flight-errors", "N"),
            value("flight-dump", "FILE"),
            value("cost-json", "FILE"),
            value("stats-json", "FILE"),
            value("addr-file", "FILE"),
            value("sojourn-target-ms", "MS"),
            value("shed-interval-ms", "MS"),
            value("tenant-share-permille", "P"),
            value("brownout-enter", "MILLI"),
            value("brownout-exit", "MILLI"),
            value("chaos", "reset=R,stall=R,partial=R,abort=R,stall-millis=MS"),
            value("chaos-seed", "N"),
            value("chaos-addr-file", "FILE"),
            value("shard-id", "I"),
            value("shard-map", "FILE"),
            value("router", "ADDR"),
            value("exchange-interval-ms", "MS"),
            value("seed", "N"),
            value("scale", "S"),
        ],
    },
    Command {
        verb: "partition",
        args: "<dataset|FILE>",
        flags: &[
            value("shards", "K"),
            value("out-dir", "DIR"),
            value("seed", "N"),
            value("scale", "S"),
            value("strategy", "edge-cut|ring"),
            value("stats-json", "FILE"),
        ],
    },
    Command {
        verb: "route",
        args: "MAPFILE",
        flags: &[
            value("workers", "ADDR,ADDR,..."),
            value("addr", "A"),
            value("addr-file", "FILE"),
            value("eject-after", "N"),
            value("probe-interval-ms", "MS"),
        ],
    },
    Command {
        verb: "plan",
        args: "<dataset>",
        flags: &[value("dollars", "X"), value("queries", "N"), value("method", "M")],
    },
    Command { verb: "tables", args: "", flags: &[] },
];

/// Print the usage text, rendered from [`COMMANDS`], and exit 2.
fn usage() -> ExitCode {
    eprintln!("{}", cli::usage("mqo", COMMANDS));
    ExitCode::from(2)
}

fn dataset_by_name(name: &str) -> Option<DatasetId> {
    DatasetId::ALL.into_iter().find(|id| id.name() == name)
}

/// Load from file when the argument looks like a path, else generate.
fn resolve_bundle(arg: &str, scale: Option<f64>, seed: u64) -> Result<DatasetBundle, String> {
    if let Some(id) = dataset_by_name(arg) {
        return Ok(dataset(id, scale, seed));
    }
    let path = std::path::Path::new(arg);
    if path.exists() {
        // Attach the spec whose name is stored in the file; fall back to
        // Cora's spec shape for foreign files.
        let probe = persist::load(path, DatasetId::Cora.spec())
            .map_err(|e| format!("cannot load {arg}: {e}"))?;
        let spec = dataset_by_name(probe.tag.name())
            .map(|id| id.spec())
            .unwrap_or_else(|| DatasetId::Cora.spec());
        return persist::load(path, spec).map_err(|e| format!("cannot load {arg}: {e}"));
    }
    Err(format!("'{arg}' is neither a known dataset nor an existing file"))
}

fn cmd_generate(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let name = pos.first().ok_or("missing dataset name")?;
    let id = dataset_by_name(name).ok_or_else(|| format!("unknown dataset '{name}'"))?;
    let scale = flags.get("scale").map(|s| s.parse().map_err(|_| "bad --scale")).transpose()?;
    let seed = flags.get("seed").map_or(Ok(42), |s| s.parse().map_err(|_| "bad --seed"))?;
    let out = flags.get("out").ok_or("missing --out FILE")?;
    let bundle = dataset(id, scale, seed);
    persist::save(&bundle, out).map_err(|e| format!("cannot save: {e}"))?;
    println!(
        "wrote {} ({} nodes, {} edges) to {out}",
        bundle.tag.name(),
        bundle.tag.num_nodes(),
        bundle.tag.num_edges()
    );
    Ok(())
}

fn cmd_inspect(pos: &[String]) -> Result<(), String> {
    let arg = pos.first().ok_or("missing file or dataset")?;
    let bundle = resolve_bundle(arg, None, 42)?;
    let s = mqo_graph::stats::summarize(&bundle.tag);
    println!("dataset     : {}", s.name);
    println!("nodes       : {}", s.nodes);
    println!("edges       : {}", s.edges);
    println!("classes     : {}", s.classes);
    println!("homophily   : {:.3}", s.homophily);
    println!("mean degree : {:.2}", s.mean_degree);
    println!("text words  : {:.0} per node", s.mean_text_words);
    println!("scale       : {:.4}", bundle.scale);
    Ok(())
}

fn cmd_classify(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let arg = pos.first().ok_or("missing dataset or file")?;
    let seed = flags.get("seed").map_or(Ok(42u64), |s| s.parse().map_err(|_| "bad --seed"))?;
    let bundle = resolve_bundle(arg, flags.get("scale").and_then(|s| s.parse().ok()), seed)?;
    let queries: usize =
        flags.get("queries").map_or(Ok(200), |s| s.parse().map_err(|_| "bad --queries"))?;
    let method = flags.get("method").map(String::as_str).unwrap_or("1hop");
    let threads: usize =
        flags.get("threads").map_or(Ok(1), |s| s.parse().map_err(|_| "bad --threads"))?;
    let profile = match flags.get("model").map(String::as_str) {
        None | Some("gpt35") => ModelProfile::gpt35(),
        Some("gpt4o-mini") => ModelProfile::gpt4o_mini(),
        Some(other) => return Err(format!("unknown model '{other}'")),
    };

    // `--repeat K` replays the query list K times — the serving-style
    // workload (overlapping traffic) where a response cache pays off.
    let repeat: usize =
        flags.get("repeat").map_or(Ok(1), |s| s.parse().map_err(|_| "bad --repeat"))?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let budget: Option<u64> =
        flags.get("budget").map(|b| b.parse().map_err(|_| "bad --budget")).transpose()?;

    let split = split_for(&bundle, queries, seed)?;
    // With a hard budget the retry layer re-checks each retried prompt
    // against Eq. 2, so retries stay on by default either way.
    let retries: u32 =
        flags.get("retries").map_or(Ok(3), |s| s.parse().map_err(|_| "bad --retries"))?;
    let trace = flags
        .get("trace")
        .map(Trace::create)
        .transpose()
        .map_err(|e| format!("cannot create trace file: {e}"))?;
    let chrome = flags
        .get("trace-chrome")
        .map(ChromeTraceSink::create)
        .transpose()
        .map_err(|e| format!("cannot create chrome trace file: {e}"))?
        .map(Arc::new);
    let metrics = flags.get("serve-metrics").map(|_| Arc::new(MetricsSink::new()));
    let ledger = flags.get("cost-json").map(|_| Arc::new(CostLedger::new()));
    // Spans are stamped from the process monotonic clock only when a
    // Chrome trace asked for them; the disabled tracer otherwise makes
    // every span a free no-op (no ids, no clock reads, no events).
    let tracer = Arc::new(if chrome.is_some() {
        Tracer::new(Arc::new(MonotonicClock))
    } else {
        Tracer::disabled()
    });
    // Every observer shares one fanout; the cache invalidator joins it
    // below once the client stack exists.
    let fanout = Arc::new(Fanout::new());
    if let Some(t) = &trace {
        fanout.push(Arc::new(t.clone()));
    }
    if let Some(c) = &chrome {
        fanout.push(c.clone());
    }
    if let Some(m) = &metrics {
        fanout.push(m.clone());
    }
    if let Some(l) = &ledger {
        fanout.push(l.clone());
    }
    let observed = !fanout.is_empty();

    let sim = SimLlm::new(bundle.lexicon.clone(), bundle.tag.class_names().to_vec(), profile);
    let faults = match flags.get("faults") {
        Some(spec) => {
            let cfg = FaultConfig::parse(spec).map_err(|e| format!("bad --faults: {e}"))?;
            FaultSchedule::seeded(seed, cfg)
        }
        None => FaultSchedule::clean(),
    };
    let kill_after = flags
        .get("fault-kill-after")
        .map(|n| n.parse().map_err(|_| "bad --fault-kill-after"))
        .transpose()?;
    // `--no-cache` keeps the cache wrapper (capacity 0 is a transparent
    // pass-through) so both arms run identical code.
    let cache_cap: usize = if flags.contains_key("no-cache") {
        0
    } else {
        flags.get("cache-cap").map_or(Ok(4096), |s| s.parse().map_err(|_| "bad --cache-cap"))?
    };
    let llm = client_stack(
        sim,
        bundle.tag.class_names().to_vec(),
        StackSpec {
            faults,
            kill_after,
            seed,
            retries,
            budget,
            cache_cap,
            sink: observed.then(|| fanout.clone() as Arc<dyn EventSink>),
            tracer: tracer.enabled().then(|| tracer.clone()),
        },
    );
    let m = paper_max_neighbors(bundle.tag.name());
    // Round-based invalidation rides the telemetry stream: the invalidator
    // is an event sink that advances the cache epoch on RoundCompleted, so
    // boosting-enriched prompts are never answered from a previous round.
    let invalidator = llm.round_invalidator();
    fanout.push(Arc::new(invalidator));
    // The run journal is created (or resumed) before the executor borrows
    // it; the header fingerprints the run shape so `--resume` refuses a
    // journal written by a different campaign.
    let journal: Option<RunJournal> = match flags.get("journal") {
        Some(path) => {
            let header = RunHeader {
                dataset: bundle.tag.name().to_string(),
                method: method.to_string(),
                seed,
                queries: (split.queries().len() * repeat) as u64,
                boost: flags.contains_key("boost"),
                budget,
            };
            Some(if flags.contains_key("resume") {
                RunJournal::resume(path, &header)
                    .map_err(|e| format!("cannot resume journal {path}: {e}"))?
            } else {
                RunJournal::create(path, &header)
                    .map_err(|e| format!("cannot create journal {path}: {e}"))?
            })
        }
        None if flags.contains_key("resume") => {
            return Err("--resume requires --journal FILE".into())
        }
        None => None,
    };
    // Degraded mode is always on in the CLI: a failed query becomes a
    // recorded outcome instead of aborting the whole campaign.
    let mut exec = Executor::new(&bundle.tag, &llm, m, seed)
        .with_sink(&*fanout)
        .with_tracer(&tracer)
        .with_degrade();
    if let Some(j) = &journal {
        exec = exec.with_journal(j);
    }
    if let Some(b) = budget {
        exec = exec.with_budget(b);
    }
    if observed {
        llm.meter().attach_sink(fanout.clone());
    }
    let predictor = make_predictor(method, &bundle)?;

    let run_queries: Vec<NodeId> = split.queries().repeat(repeat);

    let plan = match flags.get("prune") {
        Some(tau_s) => {
            let tau: f64 = tau_s.parse().map_err(|_| "bad --prune")?;
            let scorer =
                InadequacyScorer::build(&exec, &split, &SurrogateConfig::small(seed), 10, seed)
                    .map_err(|e| format!("scorer: {e}"))?;
            PrunePlan::by_inadequacy(&scorer, &bundle.tag, split.queries(), tau)
        }
        None => PrunePlan::default(),
    };

    // The metrics endpoint comes up before the run so `/metrics` and
    // `/progress` can be polled while queries are in flight; it stays up
    // until the process exits.
    let _server = match (&metrics, flags.get("serve-metrics")) {
        (Some(m), Some(addr)) => {
            let srv = serve_metrics(addr, m.clone())
                .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
            println!("metrics         : http://{}/metrics (and /progress)", srv.addr());
            Some(srv)
        }
        _ => None,
    };

    // Root span of the whole campaign. Workers and rounds with no open
    // span on their own thread inherit it through the executor's scope.
    let run_span = tracer.span(
        &*fanout,
        "run",
        || format!("classify {} ({method})", bundle.tag.name()),
        SpanId::NONE,
    );
    exec.set_span_scope(run_span.id());

    let run_started = std::time::Instant::now();
    // One execution core for every shape of run: the scheduler policy is
    // the only thing the flags choose.
    let deterministic = flags.contains_key("deterministic");
    let outcome = if flags.contains_key("boost") {
        let mut labels = LabelStore::from_split(&bundle.tag, &split);
        let report = Scheduler::new(
            &exec,
            SchedulePolicy::CueGated {
                config: BoostConfig::default(),
                policy: DegradePolicy::default(),
                threads: threads.max(1),
                // Width 1 is deterministic by construction; wider runs
                // free-run unless --deterministic asks for wave barriers.
                deterministic: deterministic || threads <= 1,
            },
        )
        .run(predictor.as_ref(), Labels::Boosting(&mut labels), &run_queries, |v| {
            plan.is_pruned(v)
        })
        .map_err(|e| format!("boosting: {e}"))?;
        println!("boosting rounds: {}", report.rounds.len());
        println!("readiness checks: {}", report.readiness_checks);
        report.outcome
    } else {
        let labels = LabelStore::from_split(&bundle.tag, &split);
        let policy = if let Some(b) = flags.get("batch") {
            let batch: usize = b.parse().map_err(|_| "bad --batch")?;
            SchedulePolicy::Batched { threads: threads.max(1), batch_size: batch.max(1) }
        } else if threads > 1 {
            SchedulePolicy::Parallel { threads }
        } else {
            SchedulePolicy::Fifo
        };
        Scheduler::new(&exec, policy)
            .run(predictor.as_ref(), Labels::Fixed(&labels), &run_queries, |v| {
                plan.is_pruned(v)
            })
            .map_err(|e| format!("run: {e}"))?
            .outcome
    };
    let wall_seconds = run_started.elapsed().as_secs_f64();
    drop(run_span);

    let matrix = ConfusionMatrix::from_outcome(&bundle.tag, &outcome);
    println!("method          : {}", predictor.name());
    println!("queries         : {}", outcome.records.len());
    println!("accuracy        : {:.1}%", outcome.accuracy() * 100.0);
    println!("macro F1        : {:.3}", matrix.macro_f1());
    println!("with neighbors  : {}", outcome.queries_with_neighbors());
    println!("prompt tokens   : {}", outcome.prompt_tokens());
    let totals = llm.meter().totals();
    if let Some(b) = exec.budget {
        println!(
            "budget          : {} of {} input tokens spent ({} queries starved)",
            totals.prompt_tokens,
            b,
            outcome.budget_starved(),
        );
    }
    if outcome.failed() > 0 {
        println!("failed queries  : {}", outcome.failed());
    }
    if let Some(j) = &journal {
        println!(
            "journal         : {} ({} replayed, {} recorded)",
            j.path().display(),
            j.replayed(),
            j.recorded(),
        );
    }
    println!(
        "est. cost       : ${:.4} at {} prices",
        GPT_35_TURBO_0125.cost(totals),
        GPT_35_TURBO_0125.name
    );
    let cstats = llm.stats();
    if cache_cap > 0 {
        println!(
            "cache           : {} hit, {} miss, {} coalesced ({:.1}% served; {} evict, {} stale)",
            cstats.cache.hits,
            cstats.cache.misses,
            cstats.coalesced,
            100.0 * cstats.serve_rate(),
            cstats.cache.evictions,
            cstats.cache.stale_drops,
        );
        println!(
            "tokens saved    : {} (+{} radix-prefix reusable)",
            cstats.tokens_saved, cstats.prefix_reuse_tokens,
        );
    }
    if observed {
        llm.report(&*fanout);
    }
    if let Some(t) = &trace {
        mqo_obs::EventSink::flush(t);
        print!("{}", t.summary());
        println!("trace written   : {}", flags["trace"]);
        let dropped = t.dropped();
        if dropped > 0 {
            if let Some(m) = &metrics {
                m.add_events_dropped(dropped);
            }
            println!(
                "warning         : {dropped} event(s) evicted from the summary ring \
                 (the JSONL trace file is complete)"
            );
        }
    }
    if let Some(c) = &chrome {
        mqo_obs::EventSink::flush(&**c);
        println!("chrome trace    : {} ({} spans)", flags["trace-chrome"], c.span_count());
    }
    if let Some(l) = &ledger {
        let report = l.report();
        print!("{report}");
        let reconciles = report.reconciles_with(totals.prompt_tokens);
        let path = &flags["cost-json"];
        std::fs::write(path, report.to_json(totals.prompt_tokens))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("cost ledger     : {path} (reconciles with meter: {reconciles})");
    }
    if let Some(path) = flags.get("stats-json") {
        let stats = serde_json::json!({
            "dataset": bundle.tag.name(),
            "method": predictor.name(),
            "queries": outcome.records.len(),
            "repeat": repeat,
            "cache_cap": cache_cap,
            "accuracy": outcome.accuracy(),
            "tokens_sent": totals.prompt_tokens,
            "requests_sent": totals.requests,
            "cache_hits": cstats.cache.hits,
            "cache_misses": cstats.cache.misses,
            "coalesced": cstats.coalesced,
            "serve_rate": cstats.serve_rate(),
            "tokens_saved": cstats.tokens_saved,
            "prefix_reuse_tokens": cstats.prefix_reuse_tokens,
            "failed": outcome.failed(),
            "replayed": journal.as_ref().map_or(0, |j| j.replayed()),
            "wall_seconds": wall_seconds,
        });
        let body =
            serde_json::to_string_pretty(&stats).map_err(|e| format!("stats json: {e}"))?;
        std::fs::write(path, body + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("stats written   : {path}");
    }
    if let Some(path) = flags.get("dump-records") {
        // Records sorted by node, one journal-format line each: resumed
        // and from-scratch runs of the same campaign must dump identical
        // bytes, which is exactly what the chaos gate diffs.
        let mut records = outcome.records.clone();
        records.sort_by_key(|r| (r.node.0, r.prompt_tokens));
        let mut body = String::new();
        for r in &records {
            let line = serde_json::to_string(&mqo_core::journal::record_to_json(r))
                .map_err(|e| format!("record json: {e}"))?;
            body.push_str(&line);
            body.push('\n');
        }
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("records written : {path}");
    }
    Ok(())
}

/// Long-running classification service over the same stack as
/// `classify`. Blocks until SIGTERM/SIGINT or `POST /v1/drain`, then
/// drains gracefully: in-flight work completes, the journal is sealed,
/// and artifacts (chrome trace, cost ledger, stats) are written — so a
/// `--resume` restart re-bills zero tokens.
/// Load a per-shard bundle file, probing the stored dataset name for
/// its spec (same two-pass trick as [`resolve_bundle`]).
fn load_shard_bundle(path: &str) -> Result<mqo_shard::ShardBundle, String> {
    let probe = mqo_shard::ShardBundle::load(path, DatasetId::Cora.spec())
        .map_err(|e| format!("cannot load shard bundle {path}: {e}"))?;
    let spec = dataset_by_name(probe.data.tag.name())
        .map(|id| id.spec())
        .unwrap_or_else(|| DatasetId::Cora.spec());
    mqo_shard::ShardBundle::load(path, spec)
        .map_err(|e| format!("cannot load shard bundle {path}: {e}"))
}

fn cmd_serve(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let arg = pos.first().ok_or("missing dataset or file")?;
    let seed = flags.get("seed").map_or(Ok(42u64), |s| s.parse().map_err(|_| "bad --seed"))?;
    let shard_id: Option<u32> =
        flags.get("shard-id").map(|s| s.parse().map_err(|_| "bad --shard-id")).transpose()?;

    let mut tenant_budgets = HashMap::new();
    if let Some(spec) = flags.get("tenants") {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, tokens) =
                part.split_once('=').ok_or("bad --tenants (want name=tokens,...)")?;
            tenant_budgets.insert(
                name.to_string(),
                tokens.parse().map_err(|_| "bad --tenants token budget")?,
            );
        }
    }
    let cache_cap: usize = if flags.contains_key("no-cache") {
        0
    } else {
        flags.get("cache-cap").map_or(Ok(4096), |s| s.parse().map_err(|_| "bad --cache-cap"))?
    };
    let cfg = ServeConfig {
        method: flags.get("method").cloned().unwrap_or_else(|| "1hop".into()),
        seed,
        split_queries: flags
            .get("queries")
            .map_or(Ok(200), |s| s.parse().map_err(|_| "bad --queries"))?,
        max_neighbors: 0,
        budget: flags
            .get("budget")
            .map(|b| b.parse().map_err(|_| "bad --budget"))
            .transpose()?,
        retries: flags
            .get("retries")
            .map_or(Ok(3), |s| s.parse().map_err(|_| "bad --retries"))?,
        cache_cap,
        boost: flags.contains_key("boost"),
        faults: flags.get("faults").cloned(),
        journal: flags.get("journal").map(PathBuf::from),
        resume: flags.contains_key("resume"),
        trace_chrome: flags.get("trace-chrome").map(PathBuf::from),
        tenant_budgets,
        default_tenant_budget: flags
            .get("tenant-budget")
            .map(|b| b.parse().map_err(|_| "bad --tenant-budget"))
            .transpose()?,
        slo_p99_ms: flags
            .get("slo-p99-ms")
            .map(|b| b.parse().map_err(|_| "bad --slo-p99-ms"))
            .transpose()?,
        slo_availability: flags
            .get("slo-availability")
            .map_or(Ok(0.999), |s| s.parse().map_err(|_| "bad --slo-availability"))?,
        flight_slow: flags
            .get("flight-slow")
            .map_or(Ok(32), |s| s.parse().map_err(|_| "bad --flight-slow"))?,
        flight_errors: flags
            .get("flight-errors")
            .map_or(Ok(64), |s| s.parse().map_err(|_| "bad --flight-errors"))?,
    };
    let engine = Arc::new(match shard_id {
        Some(id) => {
            // Sharded worker: the positional argument is a per-shard
            // bundle file cut by `mqo partition`.
            let map_path = flags.get("shard-map").ok_or("--shard-id needs --shard-map FILE")?;
            let map = mqo_shard::ShardMap::load(map_path)
                .map_err(|e| format!("cannot load shard map {map_path}: {e}"))?;
            let sb = load_shard_bundle(arg)?;
            if sb.identity.shard_id != id {
                return Err(format!(
                    "{arg} holds shard {} but --shard-id asked for {id}",
                    sb.identity.shard_id
                ));
            }
            mqo_serve::Engine::new_sharded(sb, map, cfg)?
        }
        None => {
            let bundle =
                resolve_bundle(arg, flags.get("scale").and_then(|s| s.parse().ok()), seed)?;
            mqo_serve::Engine::new(bundle, cfg)?
        }
    });
    let mut overload = mqo_serve::OverloadConfig::default();
    if let Some(ms) = flags.get("sojourn-target-ms") {
        overload.sojourn_target_micros =
            ms.parse::<u64>().map_err(|_| "bad --sojourn-target-ms")?.saturating_mul(1_000);
    }
    if let Some(ms) = flags.get("shed-interval-ms") {
        overload.shed_interval_micros =
            ms.parse::<u64>().map_err(|_| "bad --shed-interval-ms")?.saturating_mul(1_000);
    }
    if let Some(p) = flags.get("tenant-share-permille") {
        overload.tenant_share_permille =
            p.parse().map_err(|_| "bad --tenant-share-permille")?;
    }
    if let Some(m) = flags.get("brownout-enter") {
        overload.brownout_enter_milli = m.parse().map_err(|_| "bad --brownout-enter")?;
    }
    if let Some(m) = flags.get("brownout-exit") {
        overload.brownout_exit_milli = m.parse().map_err(|_| "bad --brownout-exit")?;
    }
    let public_addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:8080".into());
    let chaos = flags
        .get("chaos")
        .map(|spec| mqo_fault::NetFaultConfig::parse(spec))
        .transpose()
        .map_err(|e| format!("bad --chaos: {e}"))?;
    let options = ServerOptions {
        // Under network chaos the proxy owns the public address and the
        // server hides behind it on a free port.
        addr: if chaos.is_some() { "127.0.0.1:0".into() } else { public_addr.clone() },
        workers: flags
            .get("workers")
            .map_or(Ok(4), |s| s.parse().map_err(|_| "bad --workers"))?,
        queue_capacity: flags
            .get("queue-cap")
            .map_or(Ok(64), |s| s.parse().map_err(|_| "bad --queue-cap"))?,
        overload,
    };
    let workers = options.workers;
    let server = mqo_serve::Server::start(Arc::clone(&engine), options)
        .map_err(|e| format!("cannot serve: {e}"))?;
    // Chaos injections are announced through the engine's own fanout so
    // they land in the same metrics registry and flight recorder as
    // everything else.
    struct EngineSink(Arc<mqo_serve::Engine>);
    impl mqo_obs::EventSink for EngineSink {
        fn emit(&self, event: &mqo_obs::Event) {
            self.0.fanout().emit(event);
        }
    }
    let proxy = match chaos {
        None => None,
        Some(net_cfg) => {
            let chaos_seed = flags
                .get("chaos-seed")
                .map_or(Ok(seed), |s| s.parse().map_err(|_| "bad --chaos-seed"))?;
            let schedule = mqo_fault::NetFaultSchedule::seeded(chaos_seed, net_cfg);
            let sink: Arc<dyn mqo_obs::EventSink> = Arc::new(EngineSink(Arc::clone(&engine)));
            Some(
                mqo_fault::ChaosProxy::start(&public_addr, server.addr(), schedule, sink)
                    .map_err(|e| format!("cannot start chaos proxy on {public_addr}: {e}"))?,
            )
        }
    };
    let public = proxy.as_ref().map_or(server.addr(), |p| p.addr());
    println!("serving         : http://{public}/v1/classify");
    println!(
        "endpoints       : /v1/healthz /v1/stats /v1/slo /v1/debug/flight /v1/drain \
         /metrics /progress"
    );
    if proxy.is_some() {
        println!("chaos proxy     : fronting http://{} (direct, fault-free)", server.addr());
    }
    if let Some(path) = flags.get("addr-file") {
        std::fs::write(path, format!("{public}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = flags.get("chaos-addr-file") {
        std::fs::write(path, format!("{}\n", server.addr()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // Sharded worker extras: announce the identity, and (when a router
    // address was given) start the background label exchanger pushing
    // boundary pseudo-labels for cross-shard boosting.
    if let Some(ctx) = engine.shard() {
        println!(
            "shard           : {} of {} ({} owned + {} halo nodes)",
            ctx.identity.shard_id,
            ctx.identity.num_shards,
            ctx.identity.num_owned(),
            ctx.identity.num_locals() - ctx.identity.num_owned(),
        );
    }
    let exchanger = match (engine.shard(), flags.get("router")) {
        (Some(_), Some(router)) => {
            let addr: std::net::SocketAddr = router
                .parse()
                .map_err(|_| format!("bad --router '{router}' (want IP:PORT)"))?;
            let interval_ms: u64 = flags
                .get("exchange-interval-ms")
                .map_or(Ok(200), |s| s.parse().map_err(|_| "bad --exchange-interval-ms"))?;
            println!(
                "label exchange  : pushing to http://{addr}/v1/labels every {interval_ms}ms"
            );
            Some(mqo_serve::LabelExchanger::start(
                Arc::clone(&engine),
                addr,
                std::time::Duration::from_millis(interval_ms),
            ))
        }
        _ => None,
    };

    mqo_serve::signal::install_term_handler();
    while !mqo_serve::signal::term_requested() && !engine.drain_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("drain requested : finishing in-flight work");
    if let Some(p) = proxy {
        let injected = p.injected();
        p.stop();
        println!("chaos proxy     : stopped after {injected} injected fault(s)");
    }
    let report = server.drain();
    // Stop the exchanger after the drain so the last in-flight batch's
    // boundary labels still get a final push.
    if let Some(ex) = exchanger {
        ex.stop();
    }

    let totals = engine.totals();
    println!("queries         : {} ({} replayed)", report.queries, report.replayed);
    println!("tokens billed   : {}", totals.prompt_tokens);
    if report.journal_sealed {
        if let Some(j) = engine.journal() {
            println!("journal sealed  : {}", j.path().display());
        }
    }
    let cstats = engine.cache_stats();
    if cache_cap > 0 {
        println!(
            "cache           : {} hit, {} miss, {} coalesced ({:.1}% served)",
            cstats.cache.hits,
            cstats.cache.misses,
            cstats.coalesced,
            100.0 * cstats.serve_rate(),
        );
    }
    let (flight_slow, flight_errors) = engine.flight().retained();
    println!(
        "flight recorder : {flight_slow} slow + {flight_errors} error request(s) retained"
    );
    if let Some(path) = flags.get("flight-dump") {
        std::fs::write(path, engine.flight().to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("flight dump     : {path}");
    }
    for t in &engine.slo().report().tenants {
        println!(
            "slo [{}]        : short burn {:.2} ({} good / {} bad), long burn {:.2} ({} good / {} bad)",
            t.tenant,
            t.short.burn_rate,
            t.short.good,
            t.short.bad,
            t.long.burn_rate,
            t.long.good,
            t.long.bad,
        );
    }
    if let Some(path) = flags.get("cost-json") {
        let ledger_report = engine.ledger().report();
        std::fs::write(path, ledger_report.to_json(totals.prompt_tokens))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "cost ledger     : {path} (reconciles with meter: {})",
            ledger_report.reconciles_with(totals.prompt_tokens)
        );
    }
    if let Some(spans) = engine.chrome_span_count() {
        println!("chrome trace    : {} ({spans} spans)", flags["trace-chrome"]);
    }
    if let Some(path) = flags.get("stats-json") {
        std::fs::write(path, engine.stats_json(None, workers))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("stats written   : {path}");
    }
    Ok(())
}

/// Cut a dataset into per-shard bundles plus the shard map.
fn cmd_partition(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let arg = pos.first().ok_or("missing dataset or file")?;
    let seed = flags.get("seed").map_or(Ok(42u64), |s| s.parse().map_err(|_| "bad --seed"))?;
    let bundle = resolve_bundle(arg, flags.get("scale").and_then(|s| s.parse().ok()), seed)?;
    let shards: u32 =
        flags.get("shards").ok_or("missing --shards K")?.parse().map_err(|_| "bad --shards")?;
    if shards == 0 || shards as usize > bundle.tag.num_nodes() {
        return Err(format!(
            "--shards must be in 1..={} for this graph",
            bundle.tag.num_nodes()
        ));
    }
    let strategy = match flags.get("strategy").map(String::as_str) {
        None | Some("edge-cut") => mqo_shard::PartitionStrategy::EdgeCut,
        Some("ring") => mqo_shard::PartitionStrategy::Ring,
        Some(other) => return Err(format!("unknown strategy '{other}' (edge-cut|ring)")),
    };
    let out_dir = flags.get("out-dir").ok_or("missing --out-dir DIR")?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;

    let map = mqo_shard::partition(bundle.tag.graph(), shards, seed, strategy);
    let map_path = format!("{out_dir}/shard-map.bin");
    map.save(&map_path).map_err(|e| format!("cannot save shard map: {e}"))?;
    println!(
        "partitioned {} ({} nodes, {} edges) into {} shard(s), seed {}",
        bundle.tag.name(),
        bundle.tag.num_nodes(),
        bundle.tag.num_edges(),
        shards,
        seed
    );
    println!("shard map       : {map_path}");
    for s in 0..shards {
        let sb = mqo_shard::extract_shard(&bundle, &map, s);
        let path = format!("{out_dir}/shard-{s}.bin");
        sb.save(&path).map_err(|e| format!("cannot save shard {s}: {e}"))?;
        let stats = map.stats(s);
        println!(
            "  shard {s}      : {} owned + {} halo nodes, {} internal / {} cut edges → {path}",
            stats.owned_nodes,
            sb.num_locals() - sb.num_owned(),
            stats.internal_edges,
            stats.cut_edges,
        );
    }
    let cut_pct = if bundle.tag.num_edges() == 0 {
        0.0
    } else {
        100.0 * map.total_cut() as f64 / bundle.tag.num_edges() as f64
    };
    println!(
        "total cut       : {} of {} edges ({cut_pct:.2}%)",
        map.total_cut(),
        bundle.tag.num_edges()
    );
    if let Some(path) = flags.get("stats-json") {
        std::fs::write(path, map.stats_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("stats written   : {path}");
    }
    Ok(())
}

/// Front a set of shard workers with the consistent routing layer.
fn cmd_route(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let map_path = pos.first().ok_or("missing shard-map file")?;
    let map = mqo_shard::ShardMap::load(map_path)
        .map_err(|e| format!("cannot load shard map {map_path}: {e}"))?;
    let workers_spec = flags
        .get("workers")
        .ok_or("missing --workers ADDR,ADDR,... (one per shard, in shard-id order)")?;
    let shards: Vec<std::net::SocketAddr> = workers_spec
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad worker address '{}'", s.trim())))
        .collect::<Result<_, String>>()?;
    if shards.len() as u32 != map.num_shards() {
        return Err(format!(
            "map has {} shards but --workers lists {} address(es)",
            map.num_shards(),
            shards.len()
        ));
    }
    let mut cfg = mqo_shard::RouterConfig::new(shards);
    if let Some(n) = flags.get("eject-after") {
        cfg.eject_after = n.parse().map_err(|_| "bad --eject-after")?;
    }
    if let Some(ms) = flags.get("probe-interval-ms") {
        cfg.probe_interval = std::time::Duration::from_millis(
            ms.parse().map_err(|_| "bad --probe-interval-ms")?,
        );
    }
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:9090".into());
    let num_shards = map.num_shards();
    let router = mqo_shard::Router::start(&addr, map, cfg)
        .map_err(|e| format!("cannot route on {addr}: {e}"))?;
    println!(
        "routing         : http://{}/v1/classify over {num_shards} shard(s)",
        router.addr()
    );
    println!("endpoints       : /v1/healthz /v1/stats /v1/labels /metrics");
    if let Some(path) = flags.get("addr-file") {
        std::fs::write(path, format!("{}\n", router.addr()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    mqo_serve::signal::install_term_handler();
    while !mqo_serve::signal::term_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("shutting down   : router");
    router.shutdown();
    Ok(())
}

fn cmd_plan(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let arg = pos.first().ok_or("missing dataset")?;
    let seed = 42;
    let bundle = resolve_bundle(arg, None, seed)?;
    let dollars: f64 = flags
        .get("dollars")
        .ok_or("missing --dollars X")?
        .parse()
        .map_err(|_| "bad --dollars")?;
    let queries: usize =
        flags.get("queries").map_or(Ok(1000), |s| s.parse().map_err(|_| "bad --queries"))?;
    let method = flags.get("method").map(String::as_str).unwrap_or("1hop");

    let split = split_for(&bundle, queries, seed)?;
    let llm = SimLlm::new(
        bundle.lexicon.clone(),
        bundle.tag.class_names().to_vec(),
        ModelProfile::gpt35(),
    );
    let exec = Executor::new(&bundle.tag, &llm, 4, seed);
    let predictor = make_predictor(method, &bundle)?;
    let labels = LabelStore::from_split(&bundle.tag, &split);
    let plan = plan_campaign(
        &exec,
        predictor.as_ref(),
        &labels,
        split.queries(),
        30,
        &GPT_35_TURBO_0125,
        dollars,
    )
    .map_err(|e| format!("plan: {e}"))?;
    println!("campaign plan for {} × {} queries ({method}):", bundle.tag.name(), plan.queries);
    println!(
        "  mean tokens/query    : {:.0} ({:.0} neighbor text)",
        plan.tokens_full, plan.tokens_neighbor
    );
    println!(
        "  unoptimized          : {:.0} tokens = ${:.4}",
        plan.est_tokens_unpruned, plan.est_cost_unpruned
    );
    println!("  budget               : ${dollars:.4}");
    println!("  → prune τ            : {:.0}%", plan.tau * 100.0);
    println!(
        "  planned              : {:.0} tokens = ${:.4}",
        plan.est_tokens_planned, plan.est_cost_planned
    );
    Ok(())
}

fn cmd_tables() {
    println!(
        "table/figure → regenerating binary (cargo run --release -p mqo-bench --bin <name>)"
    );
    for (what, bin) in [
        ("Fig. 1    — GNN vs LLM paradigms", "fig1_paradigm"),
        ("Fig. 2    — partial information decomposition", "fig2_pid"),
        ("Table II  — dataset statistics", "table2_datasets"),
        ("Table III — prompt templates", "table3_prompts"),
        ("Fig. 3    — IG proxy by label presence", "fig3_info_gain"),
        ("Table IV  — token pruning × methods", "table4_prune_methods"),
        ("Fig. 7    — budget sweep, ranked vs random", "fig7_budget_sweep"),
        ("Table V   — reducible tokens", "table5_savings"),
        ("Table VI  — inadequacy separation", "table6_inadequacy"),
        ("Fig. 8    — scheduling utilization", "fig8_scheduling"),
        ("Table VII — query boosting", "table7_boost"),
        ("Table VIII— joint strategy", "table8_joint"),
        ("Table IX  — instruction-tuned backbones", "table9_instruct"),
        ("Table X   — link prediction", "table10_linkpred"),
        ("Extension — graph-level pruning (§VII)", "ext_graphlevel"),
        ("Analysis  — prefix sharing (§II-C context)", "prefix_sharing"),
        ("Analysis  — accuracy/cost frontier (intro)", "cost_frontier"),
        ("Ablations — γ, ranking quality, SNS dim", "ablations"),
        ("Calibration check", "calibrate"),
    ] {
        println!("  {what:44} {bin}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().and_then(|verb| COMMANDS.iter().find(|c| c.verb == verb))
    else {
        return usage();
    };
    let (pos, flags) = match cmd.parse(&args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: mqo {}: {e} (run `mqo` for usage)", cmd.verb);
            return ExitCode::from(2);
        }
    };
    let result = match cmd.verb {
        "generate" => cmd_generate(&pos, &flags),
        "inspect" => cmd_inspect(&pos),
        "classify" => cmd_classify(&pos, &flags),
        "plan" => cmd_plan(&pos, &flags),
        "serve" => cmd_serve(&pos, &flags),
        "partition" => cmd_partition(&pos, &flags),
        "route" => cmd_route(&pos, &flags),
        "tables" => {
            cmd_tables();
            Ok(())
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
