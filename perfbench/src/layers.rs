//! Timing wrappers around the program's layer interfaces, the client
//! stack `mqo classify` builds, and replays that time one layer function
//! at a time over captured inputs.

use crate::spans::SpanLog;
use mqo_core::predictor::{Predictor, SelectCtx};
use mqo_core::{Executor, LabelStore};
use mqo_data::DatasetBundle;
use mqo_fault::{FaultSchedule, FaultyLlm};
use mqo_graph::{LabeledSplit, NodeId, SplitConfig, Tag};
use mqo_llm::{
    CachedLlm, Completion, LanguageModel, LenientLlm, ModelProfile, NeighborEntry,
    ResilienceConfig, ResilientLlm, RetryingLlm, SimLlm, ValidatingLlm,
};
use mqo_obs::{Event, EventSink, MonotonicClock, WaitClock};
use mqo_token::{Tokenizer, UsageMeter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// The seed every program-side component is configured with; the
/// benchmark seed only chooses the inputs.
pub const PROGRAM_SEED: u64 = 42;

/// Inputs kept by a wrapper for later replays.
const CAPTURE: usize = 2000;

/// Prompts rendered by the render replay.
pub const RENDER_SAMPLE: usize = 2000;

/// The labeled split `mqo classify` and `mqo serve` draw: the dataset's
/// own split rule with `queries` query nodes, seeded by `seed`.
pub fn split_for(
    bundle: &DatasetBundle,
    queries: usize,
    seed: u64,
) -> Result<LabeledSplit, String> {
    let cfg = match bundle.spec.split {
        SplitConfig::PerClass { per_class, .. } => {
            SplitConfig::PerClass { per_class, num_queries: queries }
        }
        SplitConfig::Fraction { labeled_fraction, .. } => {
            SplitConfig::Fraction { labeled_fraction, num_queries: queries }
        }
    };
    LabeledSplit::generate(&bundle.tag, cfg, &mut StdRng::seed_from_u64(seed))
        .map_err(|e| format!("cannot split {}: {e}", bundle.tag.name()))
}

/// The client stack of `mqo classify` without fault injection: model →
/// faults (clean) → resilience → validation → retries → lenient parse →
/// response cache.
pub type Stack<M> =
    CachedLlm<LenientLlm<RetryingLlm<ValidatingLlm<ResilientLlm<FaultyLlm<M>>>>>>;

/// The simulated model `mqo classify` and `mqo serve` run for `bundle`.
pub fn sim(bundle: &DatasetBundle) -> SimLlm {
    SimLlm::new(
        bundle.lexicon.clone(),
        bundle.tag.class_names().to_vec(),
        ModelProfile::gpt35(),
    )
}

/// Build [`Stack`] around `model` with the CLI's defaults (3 retries,
/// 4096 cache entries).
pub fn build_stack<M: LanguageModel>(model: M, class_names: Vec<String>) -> Stack<M> {
    let clock: Arc<dyn WaitClock> = Arc::new(MonotonicClock);
    let faulty = FaultyLlm::new(model, FaultSchedule::clean(), clock.clone());
    let resilient = ResilientLlm::new(
        faulty,
        ResilienceConfig { seed: PROGRAM_SEED, ..ResilienceConfig::default() },
        clock,
    );
    let retrying = RetryingLlm::new(ValidatingLlm::new(resilient, class_names), 3);
    CachedLlm::new(LenientLlm::new(retrying), 4096)
}

/// What a [`Timed`] wrapper keeps of the traffic it sees.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    /// Prompts sent.
    Prompts,
    /// Completion texts returned.
    Completions,
}

/// A `LanguageModel` that records a span around each call.
pub struct Timed<L> {
    inner: L,
    name: &'static str,
    log: Arc<SpanLog>,
    capture: Capture,
    kept: Captured,
}

/// Texts a [`Timed`] wrapper captured, shared so they stay readable after
/// the wrapper moved into a stack.
pub type Captured = Arc<Mutex<Vec<String>>>;

impl<L: LanguageModel> Timed<L> {
    /// Wrap `inner`, naming its spans `name`.
    pub fn new(inner: L, name: &'static str, log: Arc<SpanLog>, capture: Capture) -> Self {
        Timed { inner, name, log, capture, kept: Captured::default() }
    }

    /// The captured prompts or completions (at most 2000).
    pub fn captured(&self) -> Captured {
        self.kept.clone()
    }

    fn keep(&self, text: &str) {
        let mut kept = self.kept.lock().expect("capture poisoned");
        if kept.len() < CAPTURE {
            kept.push(text.to_string());
        }
    }
}

impl<L: LanguageModel> LanguageModel for Timed<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> mqo_llm::Result<Completion> {
        let out = {
            let _span = self.log.enter(self.name);
            self.inner.complete(prompt)
        };
        match (self.capture, &out) {
            (Capture::Prompts, _) => self.keep(prompt),
            (Capture::Completions, Ok(c)) => self.keep(&c.text),
            (Capture::Completions, Err(_)) => {}
        }
        out
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

/// A borrowed `LanguageModel`, so a wrapper can sit outside a stack the
/// caller still reads statistics from.
pub struct ByRef<'a, L>(pub &'a L);

impl<L: LanguageModel> LanguageModel for ByRef<'_, L> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn complete(&self, prompt: &str) -> mqo_llm::Result<Completion> {
        self.0.complete(prompt)
    }

    fn meter(&self) -> &UsageMeter {
        self.0.meter()
    }
}

/// A `Predictor` that counts neighbor selections and their time, split
/// between the thread that created it (the scheduler's coordinating
/// thread) and every other thread (the worker pool). It keeps counters,
/// not spans: a cue-gated pass selects neighbors over a million times.
pub struct TimedPredictor<'a> {
    inner: &'a dyn Predictor,
    coordinator: ThreadId,
    /// Calls and nanoseconds on the coordinator, then on workers.
    counters: [AtomicU64; 4],
}

/// What a [`TimedPredictor`] counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictorTotals {
    /// Neighbor selections on any thread.
    pub calls: u64,
    /// Their time on the coordinating thread, seconds.
    pub coordinator_s: f64,
    /// Their time on the worker threads, seconds.
    pub worker_s: f64,
}

impl<'a> TimedPredictor<'a> {
    /// Wrap `inner`; the calling thread counts as the coordinator.
    pub fn new(inner: &'a dyn Predictor) -> Self {
        TimedPredictor {
            inner,
            coordinator: std::thread::current().id(),
            counters: Default::default(),
        }
    }

    /// The counts so far.
    pub fn totals(&self) -> PredictorTotals {
        let c = |i: usize| self.counters[i].load(Ordering::Relaxed);
        PredictorTotals {
            calls: c(0) + c(2),
            coordinator_s: c(1) as f64 * 1e-9,
            worker_s: c(3) as f64 * 1e-9,
        }
    }
}

impl Predictor for TimedPredictor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ranked(&self) -> bool {
        self.inner.ranked()
    }

    fn select_neighbors(
        &self,
        ctx: &SelectCtx<'_>,
        v: NodeId,
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let start = Instant::now();
        let out = self.inner.select_neighbors(ctx, v, rng);
        let ns = start.elapsed().as_nanos() as u64;
        let base = if std::thread::current().id() == self.coordinator { 0 } else { 2 };
        self.counters[base].fetch_add(1, Ordering::Relaxed);
        self.counters[base + 1].fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn entry_for(&self, ctx: &SelectCtx<'_>, n: NodeId) -> NeighborEntry {
        self.inner.entry_for(ctx, n)
    }
}

/// Collects the executor's own per-query wall time from its
/// `QueryExecuted` events. It reports itself as not observing, so the
/// executor does no optional extra work for it.
#[derive(Default)]
pub struct QueryWalls(Mutex<Vec<u64>>);

impl QueryWalls {
    /// Take the collected wall times, µs.
    pub fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.0.lock().expect("query walls poisoned"))
    }
}

impl EventSink for QueryWalls {
    fn emit(&self, event: &Event) {
        if let Event::QueryExecuted { wall_micros, .. } = event {
            self.0.lock().expect("query walls poisoned").push(*wall_micros);
        }
    }

    fn observing(&self) -> bool {
        false
    }
}

/// Mean µs per call of prompt rendering alone and of neighbor selection,
/// replayed over `nodes` through `Executor::render_for_estimate`, plus
/// the rendered prompts.
pub struct RenderReplay {
    /// Rendering, neighbor selection excluded.
    pub render_us: f64,
    /// Neighbor selection.
    pub predictor_us: f64,
    /// The prompts rendered.
    pub prompts: Vec<String>,
}

/// Replay prompt rendering for `nodes` with `labels`.
pub fn replay_render(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    labels: &LabelStore,
    nodes: &[NodeId],
) -> RenderReplay {
    let timed = TimedPredictor::new(predictor);
    let start = Instant::now();
    let prompts: Vec<String> = nodes
        .iter()
        .map(|&v| exec.render_for_estimate(&timed, labels, v, &mut exec.query_rng(v), false))
        .collect();
    let total_s = start.elapsed().as_secs_f64();
    let predictor_s = timed.totals().coordinator_s;
    let n = nodes.len().max(1) as f64;
    RenderReplay {
        render_us: (total_s - predictor_s) / n * 1e6,
        predictor_us: predictor_s / n * 1e6,
        prompts: std::hint::black_box(prompts),
    }
}

/// Mean µs per `Tokenizer::count` over `prompts`.
pub fn replay_count(prompts: &[String]) -> f64 {
    let tok = Tokenizer::new();
    let start = Instant::now();
    let total: usize = prompts.iter().map(|p| tok.count(std::hint::black_box(p))).sum();
    std::hint::black_box(total);
    start.elapsed().as_secs_f64() / prompts.len().max(1) as f64 * 1e6
}

/// Mean µs per `parse_category` over `completions`.
pub fn replay_parse(completions: &[String], tag: &Tag) -> f64 {
    let start = Instant::now();
    let parsed = completions
        .iter()
        .filter(|c| {
            mqo_llm::parse::parse_category(std::hint::black_box(c), tag.class_names()).is_some()
        })
        .count();
    std::hint::black_box(parsed);
    start.elapsed().as_secs_f64() / completions.len().max(1) as f64 * 1e6
}
