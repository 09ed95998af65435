//! `campaign`: the paper's offline run, in process. Pubmed, 15 000
//! queries, 1-hop prompts, Algorithm 1 pruning at τ = 0.3 and Algorithm 2
//! boosting on the free-running cue-gated scheduler over 2 threads, with
//! the response cache on. Every pass builds a fresh client stack, so each
//! prompt is new to the cache.

use crate::layers::{
    build_stack, replay_count, replay_parse, replay_render, sim, split_for, ByRef, Capture,
    PredictorTotals, QueryWalls, Timed, TimedPredictor, PROGRAM_SEED, RENDER_SAMPLE,
};
use crate::procs;
use crate::spans::{layer_totals, LayerTotals, SpanLog};
use crate::stats::{median, Attribution, Latencies, Window};
use crate::{Args, Report};
use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::pruning::PrunePlan;
use mqo_core::surrogate::SurrogateConfig;
use mqo_core::{
    Executor, InadequacyScorer, KhopRandom, LabelStore, Labels, SchedulePolicy, Scheduler,
};
use mqo_data::{dataset, DatasetBundle, DatasetId};
use mqo_graph::NodeId;
use mqo_llm::LanguageModel;
use mqo_obs::{Fanout, Tracer};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERIES: usize = 15_000;
const THREADS: usize = 2;
const TAU: f64 = 0.3;
const MAX_NEIGHBORS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Everything a pass needs, built once per set-up.
struct Setup {
    bundle: DatasetBundle,
    queries: Vec<NodeId>,
    labels: LabelStore,
    plan: PrunePlan,
    predictor: KhopRandom,
    generate_s: f64,
    scorer_s: f64,
    total_s: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let bundle = dataset(DatasetId::Pubmed, None, PROGRAM_SEED);
    let generate_s = t0.elapsed().as_secs_f64();
    let split = split_for(&bundle, QUERIES, seed)?;
    let predictor = KhopRandom::new(1, bundle.tag.num_nodes());
    let t1 = Instant::now();
    let stack = build_stack(sim(&bundle), bundle.tag.class_names().to_vec());
    let exec = Executor::new(&bundle.tag, &stack, MAX_NEIGHBORS, PROGRAM_SEED).with_degrade();
    let scorer = InadequacyScorer::build(
        &exec,
        &split,
        &SurrogateConfig::small(PROGRAM_SEED),
        10,
        PROGRAM_SEED,
    )
    .map_err(|e| format!("scorer: {e}"))?;
    let scorer_s = t1.elapsed().as_secs_f64();
    let plan = PrunePlan::by_inadequacy(&scorer, &bundle.tag, split.queries(), TAU);
    let total_s = t0.elapsed().as_secs_f64();
    let labels = LabelStore::from_split(&bundle.tag, &split);
    let queries = split.queries().to_vec();
    drop(exec);
    Ok(Setup { bundle, queries, labels, plan, predictor, generate_s, scorer_s, total_s })
}

/// What one pass measured.
struct Pass {
    wall_s: f64,
    queries: u64,
    correct: u64,
    failed: u64,
    billed_tokens: u64,
    rounds: usize,
    walls_us: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// This process's CPU time over the pass, seconds.
    cpu_s: f64,
    /// Share of the machine's CPU time stolen during the pass.
    steal: f64,
    /// Set only on traced passes.
    traced: Option<TracedPass>,
}

/// Layer totals of a traced pass.
struct TracedPass {
    stack: LayerTotals,
    model: LayerTotals,
    predictor: PredictorTotals,
    /// Prompts the stack received and completions the model returned.
    prompts: Vec<String>,
    completions: Vec<String>,
}

/// Run the campaign once over a fresh client stack; `log` adds the timing
/// wrappers outside the cache, around the model, and around the predictor.
fn pass(s: &Setup, log: Option<Arc<SpanLog>>) -> Result<Pass, String> {
    let names = s.bundle.tag.class_names().to_vec();
    match log {
        None => pass_with(s, build_stack(sim(&s.bundle), names), None),
        Some(log) => {
            let model =
                Timed::new(sim(&s.bundle), "llm.model", log.clone(), Capture::Completions);
            let completions = model.captured();
            let mut p = pass_with(s, build_stack(model, names), Some(log))?;
            if let Some(t) = &mut p.traced {
                t.completions = completions.lock().expect("capture poisoned").clone();
            }
            Ok(p)
        }
    }
}

fn pass_with<M: LanguageModel + 'static>(
    s: &Setup,
    stack: crate::layers::Stack<M>,
    log: Option<Arc<SpanLog>>,
) -> Result<Pass, String> {
    let tag = &s.bundle.tag;
    let walls = Arc::new(QueryWalls::default());
    let fanout = Fanout::new();
    fanout.push(Arc::new(stack.round_invalidator()));
    fanout.push(walls.clone());
    let tracer = Tracer::disabled();
    let outer = log
        .as_ref()
        .map(|l| Timed::new(ByRef(&stack), "llm.stack", l.clone(), Capture::Prompts));
    let llm: &dyn LanguageModel = match &outer {
        Some(t) => t,
        None => &stack,
    };
    let exec = Executor::new(tag, llm, MAX_NEIGHBORS, PROGRAM_SEED)
        .with_sink(&fanout)
        .with_tracer(&tracer)
        .with_degrade();
    let timed_predictor = log.as_ref().map(|_| TimedPredictor::new(&s.predictor));
    let predictor: &dyn mqo_core::Predictor = match &timed_predictor {
        Some(p) => p,
        None => &s.predictor,
    };
    let mut labels = s.labels.clone();
    let policy = SchedulePolicy::CueGated {
        config: BoostConfig::default(),
        policy: DegradePolicy::default(),
        threads: THREADS,
        deterministic: false,
    };
    let started = Instant::now();
    let report = Scheduler::new(&exec, policy)
        .run(predictor, Labels::Boosting(&mut labels), &s.queries, |v| s.plan.is_pruned(v))
        .map_err(|e| format!("campaign run: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();

    let records = &report.outcome.records;
    let distinct: HashSet<NodeId> = records.iter().map(|r| r.node).collect();
    if records.len() != s.queries.len() || distinct.len() != s.queries.len() {
        return Err(format!(
            "campaign answered {} records for {} distinct nodes, expected one per each of {} queries",
            records.len(),
            distinct.len(),
            s.queries.len()
        ));
    }
    let cache = stack.stats();
    let traced = match (outer, &log, &timed_predictor) {
        (Some(o), Some(l), Some(p)) => {
            let t = layer_totals(&l.spans());
            Some(TracedPass {
                stack: t.get("llm.stack").copied().unwrap_or_default(),
                model: t.get("llm.model").copied().unwrap_or_default(),
                predictor: p.totals(),
                prompts: o.captured().lock().expect("capture poisoned").clone(),
                completions: Vec::new(),
            })
        }
        _ => None,
    };
    Ok(Pass {
        wall_s,
        queries: records.len() as u64,
        correct: records.iter().filter(|r| r.correct).count() as u64,
        failed: report.outcome.failed() as u64,
        billed_tokens: stack.meter().totals().prompt_tokens,
        rounds: report.rounds.len(),
        walls_us: walls.take(),
        hits: cache.cache.hits,
        misses: cache.cache.misses,
        evictions: cache.cache.evictions,
        cpu_s: 0.0,
        steal: 0.0,
        traced,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let s = setup(args.seed)?;
        setups.push((s.total_s, s.generate_s, s.scorer_s));
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    let setup_s = median(&setups.iter().map(|t| t.0).collect::<Vec<_>>());
    let generate_s = median(&setups.iter().map(|t| t.1).collect::<Vec<_>>());
    let scorer_s = median(&setups.iter().map(|t| t.2).collect::<Vec<_>>());

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // Untraced runs measure only plain passes; traced runs alternate a
    // plain and a traced pass so the difference is the tracing overhead.
    let mut spans: Option<Arc<SpanLog>> = None;
    while plain.len() < 2 || started.elapsed() < budget {
        let (cpu0, steal0) = (procs::cpu_seconds("self"), procs::host_steal());
        let mut p = pass(&s, None)?;
        p.cpu_s = procs::cpu_seconds("self") - cpu0;
        p.steal = procs::steal_share(steal0, procs::host_steal());
        plain.push(p);
        if args.trace {
            let log = Arc::new(SpanLog::new(true));
            traced.push(pass(&s, Some(log.clone()))?);
            spans.get_or_insert(log);
        }
    }

    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    report.attempted = all.iter().map(|p| p.queries).sum();
    report.failed = all.iter().map(|p| p.failed).sum();
    if report.failed > 0 {
        report.check = Err(format!("{} campaign queries failed", report.failed));
    }

    let pass_s = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    // Each pass is one measured window: a query is one request to the
    // executor, timed by the executor itself.
    let windows: Vec<Window> = plain
        .iter()
        .map(|p| {
            let mut lat = Latencies::default();
            for &w in &p.walls_us {
                lat.push_ms(w as f64 / 1000.0);
            }
            Window {
                answered: p.queries,
                queries: p.queries,
                lat,
                secs: p.wall_s,
                cpu_s: p.cpu_s,
                steal: p.steal,
            }
        })
        .collect();
    let queries: u64 = plain.iter().map(|p| p.queries).sum();
    report.lines.push(format!(
        "campaign        : {} passes of {QUERIES} queries, median pass {:.3} s",
        plain.len(),
        pass_s
    ));
    if !args.trace {
        report.metric("setup_s", setup_s);
        report.rate_metrics(windows)?;
        report.metric(
            "tokens_per_query",
            plain.iter().map(|p| p.billed_tokens).sum::<u64>() as f64 / queries as f64,
        );
        report.metric(
            "accuracy",
            plain.iter().map(|p| p.correct).sum::<u64>() as f64 / queries as f64,
        );
        report.metric("peak_rss_mb", procs::peak_rss_mb("/proc/self/status"));
        return Ok(report);
    }

    // Per-layer numbers from the traced passes, per pass.
    let t: Vec<&TracedPass> = traced.iter().filter_map(|p| p.traced.as_ref()).collect();
    let n = t.len() as f64;
    let sum = |f: &dyn Fn(&TracedPass) -> f64| t.iter().map(|p| f(p)).sum::<f64>();
    let stack_calls = sum(&|p| p.stack.calls as f64);
    let stack_busy = sum(&|p| p.stack.busy_s);
    let model_calls = sum(&|p| p.model.calls as f64);
    let model_busy = sum(&|p| p.model.busy_s);
    let pred_calls = sum(&|p| p.predictor.calls as f64);
    let pred_worker = sum(&|p| p.predictor.worker_s);
    let pred_coord = sum(&|p| p.predictor.coordinator_s);
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let traced_queries: u64 = traced.iter().map(|p| p.queries).sum();

    let exec_stack = build_stack(sim(&s.bundle), s.bundle.tag.class_names().to_vec());
    let exec = Executor::new(&s.bundle.tag, &exec_stack, MAX_NEIGHBORS, PROGRAM_SEED);
    let sample: Vec<NodeId> = s.queries.iter().copied().take(RENDER_SAMPLE).collect();
    let render = replay_render(&exec, &s.predictor, &s.labels, &sample);
    let count_us = replay_count(&t[0].prompts);
    let parse_us = replay_parse(&t[0].completions, &s.bundle.tag);
    let (hits, misses) = traced.iter().fold((0, 0), |a, p| (a.0 + p.hits, a.1 + p.misses));

    // The worker pool's time, split into the layer self times measured on
    // the workers; the coordinating thread's neighbor selections for
    // readiness run beside it and are reported on their own line.
    let whole = THREADS as f64 * traced_wall;
    let attribution = Attribution {
        whole,
        parts: vec![
            ("llm.model", model_busy),
            ("llm.stack", stack_busy - model_busy),
            ("core.predictor", pred_worker),
            ("llm.prompt", render.render_us * 1e-6 * traced_queries as f64),
            ("llm.parse", parse_us * 1e-6 * stack_calls),
        ],
    };
    report.lines.push(format!(
        "coordinator     : {:.3} s of neighbor selection per pass for readiness ({:.1}% of the pass wall)",
        pred_coord / n,
        100.0 * pred_coord / traced_wall
    ));
    let traced_pass_s = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());

    report.metric("data.generate_s", generate_s);
    report.metric("core.inadequacy.build_s", scorer_s);
    report.metric("core.pruning.pruned_share", s.plan.len() as f64 / QUERIES as f64);
    report.metric(
        "core.sched.rounds",
        median(&traced.iter().map(|p| p.rounds as f64).collect::<Vec<_>>()),
    );
    report.metric("core.sched.llm_busy_share", stack_busy / whole);
    report.metric("core.predictor.calls", pred_calls / n);
    report.metric("core.predictor.us", (pred_worker + pred_coord) / pred_calls.max(1.0) * 1e6);
    report.metric("llm.prompt.render_us", render.render_us);
    report.metric("token.count_us", count_us);
    report.metric("llm.parse_us", parse_us);
    report.metric("llm.stack.calls", stack_calls / n);
    report.metric("llm.stack.busy_s", stack_busy / n);
    report.metric("llm.model.calls", model_calls / n);
    report.metric("llm.model.busy_s", model_busy / n);
    report.metric("llm.model.calls_per_query", model_calls / traced_queries as f64);
    report.metric("llm.stack.overhead_s", (stack_busy - model_busy) / n);
    report.metric("cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    report.metric(
        "cache.evictions",
        median(&traced.iter().map(|p| p.evictions as f64).collect::<Vec<_>>()),
    );
    // Layers off this workload's in-process path.
    for name in [
        "obs.httpd.healthz_us",
        "serve.server.classify_us",
        "serve.engine.process_us",
        "obs.flight.collect_us",
        "shard.partition_s",
        "shard.cut_edge_ratio",
        "shard.mixed_ratio",
        "shard.upstream_sum_ms",
        "shard.router.self_ms",
        "gen.cpu_us_per_req",
        "gen.send_gap_us",
    ] {
        report.metric(name, 0.0);
    }
    report.metric("unattributed_share", attribution.unattributed_share());
    report.metric("tracing_overhead_share", traced_pass_s / pass_s - 1.0);
    report.attribution = Some(attribution);
    report.spans = spans;
    Ok(report)
}
