//! The event-driven execution scheduler.
//!
//! One entry point — [`Scheduler::run`] — replaces the four historical
//! orchestration paths (`run_all`, `run_all_parallel`, `run_all_batched`,
//! and the boosting round loop). `Executor::run_all` and the boosting
//! entry points survive as thin shims; pooled callers build a
//! [`Scheduler`] directly. A
//! [`SchedulePolicy`] picks how work becomes *ready*:
//!
//! * [`SchedulePolicy::Fifo`] — queries run inline, in input order, on the
//!   caller's thread. The only policy that supports the Eq. 2 hard budget
//!   (budget enforcement is meter-order-dependent) and the policy the
//!   serving hot path uses (no cross-thread hand-off per request).
//! * [`SchedulePolicy::Parallel`] — every query is ready immediately; a
//!   fixed worker pool pulls work from a bounded dispatch queue and pushes
//!   [`QueryRecord`]s back through a completion channel. Records are
//!   re-assembled in input order.
//! * [`SchedulePolicy::Batched`] — like `Parallel`, but prompts are
//!   pre-rendered and sorted so prefix-coherent batches dispatch as a
//!   unit (maximizing provider-side prefix-cache adjacency).
//! * [`SchedulePolicy::CueGated`] — Algorithm 2: a query becomes ready
//!   when its neighbor pseudo-label support satisfies the γ₁/γ₂ rule.
//!   One coordinator loop runs it on the worker pool at every width; each
//!   dispatched query carries a copy-on-write snapshot of the label store.
//!   In **deterministic** mode (and always at width 1) the loop waits at
//!   a barrier: the whole ready set dispatches from one snapshot, nothing
//!   more is sent until all of it is back, and the results fold in
//!   candidate order as one round (the paper's rounds) — byte-identical
//!   record streams across runs and widths. In **free-running** mode the
//!   barrier is gone: each completion batch folds as it lands and newly
//!   qualified queries dispatch while their siblings are still in flight,
//!   overlapping LLM latency with readiness evaluation. Both modes ask one
//!   readiness tracker, which re-checks a pending query only when a label
//!   lands within the predictor's [`Predictor::cue_radius`] of it.
//!
//! ## Determinism contract
//!
//! Under `CueGated { deterministic: true }` the ready queue is drained in
//! a stable order (input arrival order, which the CLI derives from the
//! seeded split; a retried query keeps its place), every wave reads one
//! frozen label snapshot, and records are assembled in candidate order —
//! so two runs with the same seed produce byte-identical record dumps
//! whenever the model itself is call-order-insensitive (the simulated
//! backends are; a response cache or call-indexed fault schedule is not,
//! which is why the scheduler smoke runs with `--no-cache` and no
//! faults). At width 1 the calls are also issued in the pre-scheduler
//! loop's order, so even call-indexed fault schedules replay it.
//!
//! ## Failures
//!
//! Workers contain panics at every width: the panicked query becomes a
//! failed record (and a [`mqo_obs::Event::WorkerLost`]), which cue-gated
//! runs escalate like any other failure. An `Err` aborts the run: the
//! worker that produced it pulls no more work and the coordinator drops
//! what is still queued, so at width 1 nothing is sent after it.
//!
//! ## Invariants preserved (checked by `obs_check` and the equivalence
//! proptests below)
//!
//! * Span causality: query spans parent to the round span in barrier mode
//!   and to the run scope in free-running mode; `llm_call` under `query`.
//! * Ledger conservation: per-query cost accounting is untouched — any
//!   grouping of [`Executor::run_one_reusing`] calls conserves.
//! * Journal replay/resume: journaled queries replay before dispatch and
//!   fresh records are journaled on completion; cue-gated runs seal
//!   rounds (barrier mode) or fold batches (free-running) with an fsync.
//! * Eq. 2 hard budget: order-dependent, so pooled policies reject it
//!   (`Error::Config`) and cue-gated runs clamp to width 1.

use crate::boosting::{label_support, BoostConfig, DegradePolicy, RoundTrace};
use crate::error::{Error, Result};
use crate::executor::{ExecOutcome, Executor, QueryRecord, RenderScratch};
use crate::labels::LabelStore;
use crate::parallel::panic_message;
use crate::predictor::{Predictor, SelectCtx};
use crate::queue::BoundedQueue;
use mqo_graph::traversal::{khop_nodes, HopNode, KhopBuffer};
use mqo_graph::NodeId;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

/// How the scheduler decides what is ready to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Run queries inline, in input order, on the caller's thread
    /// (recovers `Executor::run_all`). Supports the hard budget.
    Fifo,
    /// Dispatch every query immediately across a fixed worker pool
    /// (recovers the former `run_all_parallel`).
    Parallel {
        /// Worker-pool width (must be ≥ 1).
        threads: usize,
    },
    /// Dispatch prefix-coherent batches across a fixed worker pool
    /// (recovers the former `run_all_batched`).
    Batched {
        /// Worker-pool width (must be ≥ 1).
        threads: usize,
        /// Queries per dispatched batch (must be ≥ 1).
        batch_size: usize,
    },
    /// Algorithm 2 query boosting: readiness keyed by the γ₁/γ₂
    /// neighbor-cue rule, with incremental relaxation when nothing
    /// qualifies (recovers the boosting round loop).
    CueGated {
        /// Candidacy thresholds (γ₁/γ₂) before relaxation.
        config: BoostConfig,
        /// Failure escalation policy under a degraded executor.
        policy: DegradePolicy,
        /// Worker-pool width (clamped to 1 under a hard budget).
        threads: usize,
        /// `true` → wave (round) execution with a barrier per wave:
        /// byte-identical records across runs. `false` → free-running:
        /// completions fold immediately and newly ready queries dispatch
        /// without waiting for the wave to drain. Width 1 always waits
        /// at the barrier.
        deterministic: bool,
    },
}

/// The label knowledge a run reads (and, for cue-gated runs, writes).
pub enum Labels<'l> {
    /// A frozen label store: no pseudo-labels are folded back.
    Fixed(&'l LabelStore),
    /// A mutable label store: executed queries contribute pseudo-labels
    /// (required by [`SchedulePolicy::CueGated`]).
    Boosting(&'l mut LabelStore),
}

impl Labels<'_> {
    fn store(&self) -> &LabelStore {
        match self {
            Labels::Fixed(l) => l,
            Labels::Boosting(l) => l,
        }
    }
}

/// What a scheduled run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Per-query records. Input order for `Fifo`/`Parallel`/`Batched`,
    /// candidate order per wave for deterministic cue-gated runs,
    /// completion order for free-running cue-gated runs.
    pub outcome: ExecOutcome,
    /// One trace per executed wave (cue-gated wave mode) or fold batch
    /// (free-running). Empty for the fixed policies.
    pub rounds: Vec<RoundTrace>,
    /// Queries replayed from the journal without touching the model.
    pub replayed: u64,
    /// Prompt tokens billed to freshly executed (non-replayed) records.
    pub fresh_billed_tokens: u64,
    /// Readiness `label_support` calls (cue-gated runs): one per query
    /// entering pending, and one per re-check of a pending query after a
    /// label change within the predictor's cue radius of it.
    pub readiness_checks: u64,
}

/// One unit of dispatched work: a single query, or a whole
/// prefix-coherent batch claimed by one worker.
struct Work {
    items: Vec<WorkItem>,
    batch: Option<BatchMeta>,
    /// The label snapshot the items read (a copy-on-write clone).
    labels: Arc<LabelStore>,
}

struct WorkItem {
    slot: usize,
    node: NodeId,
    force_prune: bool,
}

struct BatchMeta {
    index: u32,
    /// Chunk size including journal-replayed members (the dispatch event
    /// reports planned coverage, as the pre-scheduler path did).
    queries: u64,
    shared_prefix_tokens: u64,
}

/// A completion pushed back through the completion channel.
struct Done {
    slot: usize,
    record: Result<QueryRecord>,
}

/// The event-driven execution core: one readiness queue, one fixed
/// worker pool, one completion channel, pluggable [`SchedulePolicy`].
pub struct Scheduler<'s, 'e> {
    exec: &'s Executor<'e>,
    policy: SchedulePolicy,
}

impl<'s, 'e> Scheduler<'s, 'e> {
    /// A scheduler driving `exec` under `policy`.
    pub fn new(exec: &'s Executor<'e>, policy: SchedulePolicy) -> Self {
        Scheduler { exec, policy }
    }

    /// Execute `queries` to completion under the configured policy.
    ///
    /// `prune_set` marks queries that execute without neighbor text
    /// (Algorithm 1 pruning; cue-gated runs treat pruned queries as
    /// immediately ready since they cannot be enriched).
    ///
    /// # Panics
    ///
    /// Panics if a pooled policy is configured with zero threads or a
    /// zero batch size, or a cue-gated policy with `give_up_after == 0`.
    pub fn run(
        &self,
        predictor: &dyn Predictor,
        labels: Labels<'_>,
        queries: &[NodeId],
        prune_set: impl Fn(NodeId) -> bool + Sync,
    ) -> Result<RunReport> {
        match self.policy {
            SchedulePolicy::Fifo => {
                self.run_fifo(predictor, labels.store(), queries, &prune_set)
            }
            SchedulePolicy::Parallel { threads } => {
                self.run_pooled(predictor, labels.store(), queries, &prune_set, threads, None)
            }
            SchedulePolicy::Batched { threads, batch_size } => self.run_pooled(
                predictor,
                labels.store(),
                queries,
                &prune_set,
                threads,
                Some(batch_size),
            ),
            SchedulePolicy::CueGated { config, policy, threads, deterministic } => {
                let labels = match labels {
                    Labels::Boosting(l) => l,
                    Labels::Fixed(_) => {
                        return Err(Error::Config {
                            detail: "cue-gated scheduling needs a boosting label store".into(),
                        })
                    }
                };
                assert!(policy.give_up_after >= 1, "give_up_after must be positive");
                // The hard budget is meter-order-dependent: clamp to one
                // worker behind the barrier so spend order is reproducible.
                let width = if self.exec.budget.is_some() { 1 } else { threads.max(1) };
                self.cue_gated(
                    predictor,
                    labels,
                    queries,
                    &prune_set,
                    config,
                    policy,
                    width,
                    deterministic || width == 1,
                )
            }
        }
    }

    /// Inline FIFO: the zero-hand-off hot path (and the only
    /// budget-capable one).
    fn run_fifo(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: &(impl Fn(NodeId) -> bool + Sync),
    ) -> Result<RunReport> {
        let exec = self.exec;
        let mut report = RunReport::default();
        let mut scratch = RenderScratch::new();
        for &v in queries {
            if let Some(rec) = exec.replay_journaled(v) {
                report.replayed += 1;
                report.outcome.records.push(rec);
                continue;
            }
            let mut rng = exec.query_rng(v);
            let rec = exec.run_one_reusing(
                predictor,
                labels,
                v,
                &mut rng,
                prune_set(v),
                &mut scratch,
            )?;
            exec.journal_record(&rec);
            report.fresh_billed_tokens += rec.prompt_tokens;
            report.outcome.records.push(rec);
        }
        Ok(report)
    }

    /// The pooled fixed policies: dispatch everything up front (one item
    /// per work unit, or prefix-coherent batches), then drain the
    /// completion channel and re-assemble in input order.
    fn run_pooled(
        &self,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: &(impl Fn(NodeId) -> bool + Sync),
        threads: usize,
        batch_size: Option<usize>,
    ) -> Result<RunReport> {
        assert!(threads >= 1, "need at least one worker");
        if let Some(bs) = batch_size {
            assert!(bs >= 1, "need a positive batch size");
        }
        let exec = self.exec;
        if exec.budget.is_some() {
            // The hard-budget path is order-dependent (the meter decides
            // when to start stripping neighbor text); run it sequentially.
            return Err(Error::Config {
                detail: "hard budgets require sequential execution".into(),
            });
        }
        let mut report = RunReport::default();
        let mut slots: Vec<Option<Result<QueryRecord>>> =
            queries.iter().map(|_| None).collect();
        // Crash-safe resume: journaled queries replay before any worker
        // starts, so workers only ever see genuinely unfinished work.
        for (i, &v) in queries.iter().enumerate() {
            if let Some(rec) = exec.replay_journaled(v) {
                report.replayed += 1;
                slots[i] = Some(Ok(rec));
            }
        }

        let snapshot = Arc::new(labels.clone());
        let works: Vec<Work> = match batch_size {
            None => queries
                .iter()
                .enumerate()
                .filter(|(i, _)| slots[*i].is_none())
                .map(|(i, &v)| Work {
                    items: vec![WorkItem { slot: i, node: v, force_prune: prune_set(v) }],
                    batch: None,
                    labels: snapshot.clone(),
                })
                .collect(),
            Some(bs) => {
                // Pre-render every prompt for ordering. A panicking
                // predictor is tolerated here (empty sort key); the
                // worker's `catch_unwind` contains it as a failed record.
                let prompts: Vec<String> = queries
                    .iter()
                    .map(|&v| {
                        catch_unwind(AssertUnwindSafe(|| {
                            let mut rng = exec.query_rng(v);
                            exec.render_for_estimate(
                                predictor,
                                labels,
                                v,
                                &mut rng,
                                prune_set(v),
                            )
                        }))
                        .unwrap_or_default()
                    })
                    .collect();
                let mut order: Vec<usize> = (0..queries.len()).collect();
                order.sort_by(|&a, &b| prompts[a].cmp(&prompts[b]).then(a.cmp(&b)));
                order
                    .chunks(bs)
                    .enumerate()
                    .map(|(b, chunk)| Work {
                        items: chunk
                            .iter()
                            .filter(|&&i| slots[i].is_none())
                            .map(|&i| WorkItem {
                                slot: i,
                                node: queries[i],
                                force_prune: prune_set(queries[i]),
                            })
                            .collect(),
                        batch: Some(BatchMeta {
                            index: b as u32,
                            queries: chunk.len() as u64,
                            shared_prefix_tokens: chunk
                                .windows(2)
                                .map(|w| {
                                    mqo_cache::common_prefix_tokens(
                                        &prompts[w[0]],
                                        &prompts[w[1]],
                                    ) as u64
                                })
                                .sum(),
                        }),
                        labels: snapshot.clone(),
                    })
                    .collect()
            }
        };

        let mut outstanding: usize = works.iter().map(|w| w.items.len()).sum();
        self.with_pool(predictor, threads, works.len(), |dispatch, done_rx| {
            for w in works {
                dispatch.try_push(w).ok().expect("dispatch queue sized for all work");
            }
            while outstanding > 0 {
                let done = done_rx.recv().expect("worker pool hung up early");
                outstanding -= 1;
                match &done.record {
                    Ok(rec) => {
                        exec.journal_record(rec);
                        report.fresh_billed_tokens += rec.prompt_tokens;
                    }
                    Err(_) => {
                        outstanding -=
                            dispatch.drain().iter().map(|w| w.items.len()).sum::<usize>()
                    }
                }
                slots[done.slot] = Some(done.record);
            }
        });

        // Work dropped after an error leaves its slot empty; the first
        // error in input order is returned.
        report.outcome.records = slots.into_iter().flatten().collect::<Result<_>>()?;
        Ok(report)
    }

    /// Algorithm 2 on the worker pool, one coordinator loop at every
    /// width. The coordinator asks the readiness tracker what is ready,
    /// relaxes γ1/γ2 only when nothing is ready *and* nothing is in
    /// flight (an in-flight completion may yet unlock a pending query),
    /// and dispatches each ready query with a copy-on-write snapshot of
    /// the label store. With `barrier` set it dispatches the whole ready
    /// set, waits until nothing is in flight and folds the results in
    /// candidate order as one round — the pre-scheduler round loop,
    /// exactly. Without it each completion batch folds as it lands, and
    /// newly qualified queries dispatch while others are still running.
    #[allow(clippy::too_many_arguments)]
    fn cue_gated(
        &self,
        predictor: &dyn Predictor,
        labels: &mut LabelStore,
        queries: &[NodeId],
        prune_set: &(impl Fn(NodeId) -> bool + Sync),
        config: BoostConfig,
        policy: DegradePolicy,
        width: usize,
        barrier: bool,
    ) -> Result<RunReport> {
        let exec = self.exec;
        let mut report = RunReport::default();
        let mut pending: Vec<NodeId> = queries.to_vec();
        self.predrain_replays(labels, &mut pending, &mut report);
        let mut readiness = Readiness::new(exec.tag, predictor.cue_radius(), &pending);

        let (mut gamma1, mut gamma2) = (config.gamma1, config.gamma2);
        let k = exec.tag.num_classes();
        // Consecutive failures per node, for the fallback/give-up escalation.
        let mut failures: HashMap<NodeId, usize> = HashMap::new();
        let force_prune = |failures: &HashMap<NodeId, usize>, v: NodeId| {
            prune_set(v) || failures.get(&v).is_some_and(|&n| n >= policy.fallback_after)
        };
        let mut snapshot = Arc::new(labels.clone());
        let mut stale = false;
        let mut in_flight = 0usize;
        // Completed records awaiting the fold, with their dispatch slot.
        let mut landed: Vec<(usize, QueryRecord)> = Vec::new();
        // The open wave's round span and the span scope it replaced.
        let mut wave = None;
        let mut first_err: Option<Error> = None;

        // A query is pending, dispatched or final — never two at once —
        // so the dispatch queue never holds more than the pending count.
        self.with_pool(predictor, width, pending.len(), |dispatch, done_rx| loop {
            if first_err.is_none() && !readiness.is_empty() && (!barrier || in_flight == 0) {
                let mut ready = readiness.ready(
                    exec,
                    predictor,
                    labels,
                    |v| force_prune(&failures, v),
                    gamma1,
                    gamma2,
                );
                while ready.is_empty() && in_flight == 0 {
                    // Relax: γ1 down to zero first, then γ2 up to K (at
                    // (0, K) every query qualifies, so this terminates).
                    if gamma1 > 0 {
                        gamma1 -= 1;
                    } else if gamma2 < k {
                        gamma2 += 1;
                    } else {
                        ready = readiness.pending();
                        break;
                    }
                    ready = readiness.ready(
                        exec,
                        predictor,
                        labels,
                        |v| force_prune(&failures, v),
                        gamma1,
                        gamma2,
                    );
                }
                if !ready.is_empty() {
                    if std::mem::take(&mut stale) {
                        snapshot = Arc::new(labels.clone());
                    }
                    if barrier {
                        // Query spans nest under the wave's round span.
                        let round = report.rounds.len();
                        let span = exec.tracer.span(
                            exec.sink,
                            "round",
                            || format!("round {round}"),
                            exec.tracer.current_or(exec.span_scope()),
                        );
                        let outer = exec.span_scope();
                        exec.set_span_scope(span.id());
                        wave = Some((span, outer));
                    }
                    for (slot, v) in ready.into_iter().enumerate() {
                        readiness.remove(v);
                        let item =
                            WorkItem { slot, node: v, force_prune: force_prune(&failures, v) };
                        let work =
                            Work { items: vec![item], batch: None, labels: snapshot.clone() };
                        dispatch
                            .try_push(work)
                            .ok()
                            .expect("dispatch queue sized for pending work");
                        in_flight += 1;
                    }
                }
            }
            if in_flight == 0 {
                break;
            }

            // Block for one completion, then take whatever else has landed.
            let first = done_rx.recv().expect("worker pool hung up early");
            for done in std::iter::once(first).chain(done_rx.try_iter()) {
                in_flight -= 1;
                match done.record {
                    Ok(r) => landed.push((done.slot, r)),
                    // The first error aborts the run: drop the queued work.
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                            in_flight -= dispatch.drain().len();
                        }
                    }
                }
            }
            if barrier {
                if in_flight > 0 {
                    continue;
                }
                if let Some((span, outer)) = wave.take() {
                    exec.set_span_scope(outer);
                    drop(span);
                }
                if first_err.is_some() {
                    break;
                }
                landed.sort_unstable_by_key(|&(slot, _)| slot);
            }

            // Fold. Failure counts first, in order: a failed query with
            // retries left goes back to its place in pending order.
            let mut finals = Vec::with_capacity(landed.len());
            for (_, r) in landed.drain(..) {
                if !r.failed() {
                    failures.remove(&r.node);
                    finals.push(r);
                    continue;
                }
                let n = failures.entry(r.node).or_insert(0);
                *n += 1;
                if *n >= policy.give_up_after {
                    finals.push(r); // permanent failed outcome
                } else {
                    readiness.requeue(r.node);
                }
            }
            if finals.is_empty() && !barrier {
                continue;
            }
            for r in &finals {
                readiness.remove(r.node);
                if !r.failed() {
                    labels.add_pseudo(r.node, r.predicted);
                    readiness.labeled(r.node);
                    stale = true;
                }
            }
            // Every wave, and every free-running fold with final records,
            // is a round to downstream consumers: the cache-epoch
            // invalidator and the per-round ledger both key on it.
            let round = report.rounds.len();
            report.rounds.push(RoundTrace { executed: finals.len(), gamma1, gamma2 });
            exec.sink.emit(&mqo_obs::Event::RoundCompleted {
                round: round as u32,
                executed: finals.len() as u64,
                gamma1: gamma1 as u64,
                gamma2: gamma2 as u64,
                pseudo_label_uses: finals.iter().map(|r| r.pseudo_neighbors as u64).sum(),
            });
            // Journal the final outcomes (retried failures are not
            // final), then seal: the seal fsyncs, making the round durable.
            for r in &finals {
                exec.journal_record(r);
                report.fresh_billed_tokens += r.prompt_tokens;
            }
            if let Some(j) = exec.journal {
                j.seal_round(round as u32);
            }
            report.outcome.records.extend(finals);
        });

        report.readiness_checks = readiness.checks;
        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Run `coordinate` on the caller's thread while `width` workers
    /// execute the work it pushes onto a dispatch queue of `capacity`;
    /// completions come back through the channel. The queue closes when
    /// `coordinate` returns or unwinds, and the workers are joined before
    /// this returns.
    fn with_pool<R>(
        &self,
        predictor: &dyn Predictor,
        width: usize,
        capacity: usize,
        coordinate: impl FnOnce(&BoundedQueue<Work>, &mpsc::Receiver<Done>) -> R,
    ) -> R {
        let exec = self.exec;
        let dispatch = BoundedQueue::new(capacity);
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for worker in 0..width {
                let (dispatch, done_tx) = (&dispatch, done_tx.clone());
                scope.spawn(move || {
                    worker_loop(exec, predictor, dispatch, done_tx, worker as u32)
                });
            }
            drop(done_tx);
            let _close = CloseOnDrop(&dispatch);
            coordinate(&dispatch, &done_rx)
        })
    }

    /// Crash-safe resume for cue-gated runs: queries the journal already
    /// holds replay with zero LLM requests, and their pseudo-labels fold
    /// in up front so the remaining waves see the same label knowledge
    /// they would have accumulated live (failed queries never
    /// pseudo-label).
    fn predrain_replays(
        &self,
        labels: &mut LabelStore,
        pending: &mut Vec<NodeId>,
        report: &mut RunReport,
    ) {
        let replayed: Vec<_> =
            pending.iter().filter_map(|&v| self.exec.replay_journaled(v)).collect();
        if !replayed.is_empty() {
            let done: HashSet<NodeId> = replayed.iter().map(|r| r.node).collect();
            pending.retain(|v| !done.contains(v));
            for r in &replayed {
                if !r.failed() {
                    labels.add_pseudo(r.node, r.predicted);
                }
            }
            report.replayed = replayed.len() as u64;
            report.outcome.records.extend(replayed);
        }
    }
}

/// Closes the dispatch queue when dropped, so the workers exit even if
/// the coordinator unwinds.
struct CloseOnDrop<'q, T>(&'q BoundedQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Incremental γ₁/γ₂ readiness over the pending queries: Algorithm 2's
/// "is this query ready yet" check, paid only for what changed.
///
/// Each pending query caches its `(|N_i^L|, LC_i)`, and the verdict
/// `n_l ≥ γ1 && lc ≤ γ2` is re-derived from the cache, so a γ relaxation
/// makes no predictor calls. A new label marks dirty only the pending
/// queries within the predictor's [`Predictor::cue_radius`] of the labeled
/// node (the graph is undirected, so a BFS from that node finds them),
/// and only dirty queries call `label_support` again. Ready queries come
/// out in pending order, which is input order: an entry's index is its
/// position, and a retried query re-enters at its own. A node listed
/// twice is pending twice, and every per-node operation applies to all of
/// its entries.
struct Readiness<'g> {
    graph: &'g mqo_graph::Csr,
    radius: Option<u8>,
    entries: Vec<Entry>,
    /// Per node, its newest entry (`NONE` if it was never pending); older
    /// entries of the same node chain through [`Entry::prev`].
    newest: Vec<u32>,
    /// The pending entries.
    pending: BTreeSet<u32>,
    /// The pending entries whose verdict holds.
    ready: BTreeSet<u32>,
    /// Entries to re-check before the next verdict (may hold entries
    /// that have since left pending; their flag decides).
    dirty: Vec<u32>,
    /// Every pending entry is dirty (a label change under no radius).
    all_dirty: bool,
    gamma: (usize, usize),
    bfs: KhopBuffer,
    hops: Vec<HopNode>,
    /// `label_support` calls made so far.
    checks: u64,
}

struct Entry {
    node: NodeId,
    prev: u32,
    /// In pending (not dispatched, not done).
    pending: bool,
    dirty: bool,
    /// Pruned or failure-downgraded: ready without any support.
    forced: bool,
    support: (usize, usize),
}

impl Entry {
    fn verdict(&self, (gamma1, gamma2): (usize, usize)) -> bool {
        self.forced || (self.support.0 >= gamma1 && self.support.1 <= gamma2)
    }
}

const NONE: u32 = u32::MAX;

impl<'g> Readiness<'g> {
    /// Track `pending` (in order), every entry dirty.
    fn new(tag: &'g mqo_graph::Tag, radius: Option<u8>, pending: &[NodeId]) -> Self {
        let mut r = Readiness {
            graph: tag.graph(),
            radius,
            entries: Vec::with_capacity(pending.len()),
            newest: vec![NONE; tag.num_nodes()],
            pending: BTreeSet::new(),
            ready: BTreeSet::new(),
            dirty: Vec::with_capacity(pending.len()),
            all_dirty: false,
            gamma: (0, 0),
            bfs: KhopBuffer::new(tag.num_nodes()),
            hops: Vec::new(),
            checks: 0,
        };
        for &v in pending {
            let e = r.entries.len() as u32;
            r.entries.push(Entry {
                node: v,
                prev: r.newest[v.index()],
                pending: false,
                dirty: false,
                forced: false,
                support: (0, 0),
            });
            r.newest[v.index()] = e;
            r.enqueue(e);
        }
        r
    }

    /// Whether nothing is pending.
    fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Every pending node, in pending order.
    fn pending(&self) -> Vec<NodeId> {
        self.pending.iter().map(|&e| self.entries[e as usize].node).collect()
    }

    /// The pending queries ready at `(gamma1, gamma2)`, in pending order.
    /// Re-checks the dirty entries against `labels` first.
    fn ready(
        &mut self,
        exec: &Executor<'_>,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        force_prune: impl Fn(NodeId) -> bool,
        gamma1: usize,
        gamma2: usize,
    ) -> Vec<NodeId> {
        let ctx = SelectCtx { tag: exec.tag, labels, max_neighbors: exec.max_neighbors };
        let gamma_changed = self.gamma != (gamma1, gamma2);
        self.gamma = (gamma1, gamma2);
        if std::mem::take(&mut self.all_dirty) {
            let pending: Vec<u32> = self.pending.iter().copied().collect();
            for e in pending {
                self.mark(e);
            }
        }
        for e in std::mem::take(&mut self.dirty) {
            let entry = &mut self.entries[e as usize];
            if !std::mem::take(&mut entry.dirty) || !entry.pending {
                continue;
            }
            let v = entry.node;
            entry.forced = force_prune(v);
            if !entry.forced {
                // Per-node rng: N_i only changes when label knowledge does.
                let mut rng = exec.query_rng(v);
                entry.support = label_support(predictor, &ctx, v, &mut rng);
                self.checks += 1;
            }
            if !gamma_changed {
                self.settle(e);
            }
        }
        if gamma_changed {
            let pending: Vec<u32> = self.pending.iter().copied().collect();
            for e in pending {
                self.settle(e);
            }
        }
        self.ready.iter().map(|&e| self.entries[e as usize].node).collect()
    }

    /// Take `v` out of pending (dispatched, or finished).
    fn remove(&mut self, v: NodeId) {
        let mut e = self.newest[v.index()];
        while e != NONE {
            let entry = &mut self.entries[e as usize];
            if std::mem::take(&mut entry.pending) {
                self.pending.remove(&e);
                self.ready.remove(&e);
            }
            e = entry.prev;
        }
    }

    /// Put `v` back at its place in pending order (a failed query to
    /// retry): its newest entry that is not pending.
    fn requeue(&mut self, v: NodeId) {
        let mut e = self.newest[v.index()];
        while e != NONE && self.entries[e as usize].pending {
            e = self.entries[e as usize].prev;
        }
        assert!(e != NONE, "only a query that was pending can come back");
        self.enqueue(e);
        self.touch(v);
    }

    /// `v`'s failure count changed, and with it whether it is forced.
    fn touch(&mut self, v: NodeId) {
        let mut e = self.newest[v.index()];
        while e != NONE {
            self.mark(e);
            e = self.entries[e as usize].prev;
        }
    }

    /// `v` gained (or changed) a label: re-check every pending query
    /// within the cue radius of it.
    fn labeled(&mut self, v: NodeId) {
        let Some(radius) = self.radius else {
            self.all_dirty = true;
            return;
        };
        self.touch(v);
        if radius > 0 && !self.pending.is_empty() {
            let mut hops = std::mem::take(&mut self.hops);
            khop_nodes(self.graph, v, radius, &mut self.bfs, &mut hops);
            for h in &hops {
                self.touch(h.node);
            }
            self.hops = hops;
        }
    }

    fn enqueue(&mut self, e: u32) {
        self.entries[e as usize].pending = true;
        self.pending.insert(e);
        self.mark(e);
    }

    fn mark(&mut self, e: u32) {
        let entry = &mut self.entries[e as usize];
        if entry.pending && !entry.dirty {
            entry.dirty = true;
            self.dirty.push(e);
        }
    }

    /// File a freshly checked entry under ready or not.
    fn settle(&mut self, e: u32) {
        let entry = &self.entries[e as usize];
        assert!(entry.pending, "only pending entries settle");
        if entry.verdict(self.gamma) {
            self.ready.insert(e);
        } else {
            self.ready.remove(&e);
        }
    }
}

/// The worker side of the pool: pull work from the dispatch queue, run
/// each query against the work's label snapshot with panic containment,
/// push records back through the completion channel, and report
/// throughput on exit.
fn worker_loop(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    dispatch: &BoundedQueue<Work>,
    done_tx: mpsc::Sender<Done>,
    worker: u32,
) {
    // Fresh threads have no span stack: name their trace track (1-based;
    // 0 is the main thread) so query spans land on per-worker rows,
    // parented to the executor's span scope.
    mqo_obs::set_thread_track(worker + 1);
    let started = exec.clock.now_micros();
    let mut handled = 0u64;
    let mut scratch = RenderScratch::new();
    while let Some(work) = dispatch.pop() {
        // Queries executed while this guard is live nest under the batch
        // span via the worker's thread-local stack.
        let batch_span = work.batch.as_ref().map(|meta| {
            let span = exec.tracer.span(
                exec.sink,
                "batch",
                || format!("batch {} ({} queries)", meta.index, meta.queries),
                exec.tracer.current_or(exec.span_scope()),
            );
            exec.sink.emit(&mqo_obs::Event::BatchDispatched {
                batch: meta.index,
                queries: meta.queries,
                shared_prefix_tokens: meta.shared_prefix_tokens,
            });
            span
        });
        let mut erred = false;
        for item in &work.items {
            // Contain per-query panics: a poisoned predictor or a bug in
            // one prompt path must not lose the other queries — the
            // panicked query becomes a failed record and the run goes on.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut rng = exec.query_rng(item.node);
                exec.run_one_reusing(
                    predictor,
                    &work.labels,
                    item.node,
                    &mut rng,
                    item.force_prune,
                    &mut scratch,
                )
            }));
            let record = match outcome {
                Ok(record) => record,
                Err(payload) => {
                    // The render buffers may hold a half-written prompt.
                    scratch = RenderScratch::new();
                    let detail = panic_message(payload);
                    exec.sink.emit(&mqo_obs::Event::WorkerLost {
                        worker,
                        node: item.node.0,
                        detail: detail.clone(),
                    });
                    Ok(exec.failed_record(item.node, format!("worker panicked: {detail}")))
                }
            };
            erred |= record.is_err();
            handled += 1;
            let _ = done_tx.send(Done { slot: item.slot, record });
        }
        drop(batch_span);
        if erred {
            // An error aborts the run: pull no more work (the coordinator
            // drops whatever is still queued).
            break;
        }
    }
    exec.sink.emit(&mqo_obs::Event::WorkerThroughput {
        worker,
        queries: handled,
        wall_micros: exec.clock.now_micros().saturating_sub(started),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boosting::{
        run_with_boosting_policy, run_with_boosting_policy_legacy, RoundTrace,
    };
    use crate::parallel::legacy;
    use crate::predictor::{KhopRandom, LlmRanked, ZeroShot};
    use crate::pruning::PrunePlan;
    use crate::tuned::TunedPredictor;
    use mqo_fault::{FaultConfig, FaultSchedule, FaultyLlm};
    use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};
    use mqo_llm::{Completion, LanguageModel};
    use mqo_obs::{CostLedger, ManualClock, WaitClock};
    use mqo_token::{Tokenizer, Usage, UsageMeter};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// An order-insensitive test model: the answer is a pure function of
    /// the prompt (hash → class), so records cannot depend on the order
    /// in which concurrent schedulers happen to issue calls. (ScriptedLlm
    /// is call-order-sensitive, which would make every pooled comparison
    /// vacuously flaky.)
    struct HashLlm {
        classes: Vec<String>,
        meter: UsageMeter,
    }

    impl HashLlm {
        fn new(classes: Vec<String>) -> Self {
            HashLlm { classes, meter: UsageMeter::new() }
        }
    }

    impl LanguageModel for HashLlm {
        fn name(&self) -> &str {
            "hash"
        }

        fn complete(&self, prompt: &str) -> mqo_llm::Result<Completion> {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in prompt.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let class = &self.classes[(h % self.classes.len() as u64) as usize];
            let text = format!("Category: ['{class}']");
            let usage = Usage {
                prompt_tokens: Tokenizer.count(prompt) as u64,
                completion_tokens: Tokenizer.count(&text) as u64,
            };
            self.meter.record(usage);
            Ok(Completion::billed(text, usage))
        }

        fn meter(&self) -> &UsageMeter {
            &self.meter
        }
    }

    /// A random small TAG: `n` nodes, ~2n random edges, 2–4 classes.
    fn random_tag(seed: u64, n: usize, k: usize) -> Tag {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for _ in 0..(2 * n) {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let _ = b.add_edge(u, v);
            }
        }
        let texts = (0..n)
            .map(|i| NodeText::new(format!("paper {i}"), format!("about topic {}", i % k)))
            .collect();
        let labels = (0..n).map(|i| ClassId((i % k) as u16)).collect();
        let class_names = (0..k).map(|c| format!("Topic{c}")).collect();
        Tag::new("random", b.build(), texts, labels, class_names).unwrap()
    }

    /// Queries (every other node) and a seed label on the rest.
    fn split(tag: &Tag) -> (Vec<NodeId>, LabelStore) {
        let mut labels = LabelStore::empty(tag.num_nodes());
        let mut queries = Vec::new();
        for i in 0..tag.num_nodes() {
            if i % 2 == 0 {
                queries.push(NodeId(i as u32));
            } else {
                labels.add_pseudo(NodeId(i as u32), tag.label(NodeId(i as u32)));
            }
        }
        (queries, labels)
    }

    fn trace_fields(traces: &[RoundTrace]) -> Vec<(usize, usize, usize)> {
        traces.iter().map(|t| (t.executed, t.gamma1, t.gamma2)).collect()
    }

    /// A predictor with its cue radius hidden (`None`).
    struct NoRadius<P>(P);

    impl<P: Predictor> Predictor for NoRadius<P> {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn select_neighbors(
            &self,
            ctx: &SelectCtx<'_>,
            v: NodeId,
            rng: &mut StdRng,
        ) -> Vec<NodeId> {
            self.0.select_neighbors(ctx, v, rng)
        }
    }

    /// Every predictor the readiness tracker must agree with, covering
    /// radii 0, 1, 2 and `None`.
    fn radius_predictors(tag: &Tag) -> Vec<Box<dyn Predictor>> {
        let n = tag.num_nodes();
        let backbones = crate::tuned::instructglm_backbones();
        vec![
            Box::new(KhopRandom::new(1, n)),
            Box::new(KhopRandom::new(2, n)),
            Box::new(LlmRanked::fit(tag, 1)),
            Box::new(LlmRanked::fit(tag, 2)),
            Box::new(ZeroShot),
            Box::new(TunedPredictor::new(backbones[0], n)),
            Box::new(TunedPredictor::new(backbones[2], n)),
            Box::new(NoRadius(KhopRandom::new(1, n))),
        ]
    }

    /// The readiness oracle: a full `label_support` scan of `pending`.
    fn full_scan(
        exec: &Executor<'_>,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        pending: &[NodeId],
        forced: &HashSet<NodeId>,
        (gamma1, gamma2): (usize, usize),
    ) -> Vec<NodeId> {
        let ctx = SelectCtx { tag: exec.tag, labels, max_neighbors: exec.max_neighbors };
        pending
            .iter()
            .copied()
            .filter(|&v| {
                let (n_l, lc) = label_support(predictor, &ctx, v, &mut exec.query_rng(v));
                forced.contains(&v) || (n_l >= gamma1 && lc <= gamma2)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// FIFO scheduling is the legacy sequential loop, bit for bit —
        /// same records in the same order, same metered spend — for
        /// arbitrary small TAGs and prune sets.
        #[test]
        fn fifo_matches_legacy_run_all(seed in 0u64..10_000, n in 4usize..12, k in 2usize..4) {
            let tag = random_tag(seed, n, k);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let prune = |v: NodeId| v.0.is_multiple_of(3);

            let llm_a = HashLlm::new(tag.class_names().to_vec());
            let exec_a = Executor::new(&tag, &llm_a, 3, seed);
            let legacy = exec_a.run_all_legacy(&predictor, &labels, &queries, prune).unwrap();

            let llm_b = HashLlm::new(tag.class_names().to_vec());
            let exec_b = Executor::new(&tag, &llm_b, 3, seed);
            let sched = Scheduler::new(&exec_b, SchedulePolicy::Fifo)
                .run(&predictor, Labels::Fixed(&labels), &queries, prune)
                .unwrap();

            prop_assert_eq!(&legacy.records, &sched.outcome.records);
            prop_assert_eq!(llm_a.meter().totals(), llm_b.meter().totals());
            prop_assert_eq!(sched.replayed, 0);
            prop_assert_eq!(
                sched.fresh_billed_tokens,
                sched.outcome.records.iter().map(|r| r.prompt_tokens).sum::<u64>()
            );
        }

        /// FIFO equivalence holds under arbitrary seeded fault schedules:
        /// the scheduler issues calls in the same sequential order, so the
        /// `(seed, call-index)`-keyed injector fires identically.
        #[test]
        fn fifo_matches_legacy_under_faults(
            seed in 0u64..10_000,
            fault_seed in 0u64..10_000,
            transient in 0.0f64..0.4,
            malformed in 0.0f64..0.3,
        ) {
            let tag = random_tag(seed, 8, 2);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let cfg = FaultConfig {
                transient_rate: transient,
                malformed_rate: malformed,
                ..FaultConfig::default()
            };
            let clock = Arc::new(ManualClock::new());
            let wait: Arc<dyn WaitClock> = clock;

            let faulty_a = FaultyLlm::new(
                HashLlm::new(tag.class_names().to_vec()),
                FaultSchedule::seeded(fault_seed, cfg),
                wait.clone(),
            );
            let exec_a = Executor::new(&tag, &faulty_a, 3, seed).with_degrade();
            let legacy =
                exec_a.run_all_legacy(&predictor, &labels, &queries, |_| false).unwrap();

            let faulty_b = FaultyLlm::new(
                HashLlm::new(tag.class_names().to_vec()),
                FaultSchedule::seeded(fault_seed, cfg),
                wait.clone(),
            );
            let exec_b = Executor::new(&tag, &faulty_b, 3, seed).with_degrade();
            let sched = Scheduler::new(&exec_b, SchedulePolicy::Fifo)
                .run(&predictor, Labels::Fixed(&labels), &queries, |_| false)
                .unwrap();

            prop_assert_eq!(&legacy.records, &sched.outcome.records);
        }

        /// The pooled fixed policies produce the same input-order record
        /// stream as their pre-scheduler implementations (and the
        /// sequential path) for arbitrary TAGs and widths.
        #[test]
        fn pooled_policies_match_legacy(
            seed in 0u64..10_000,
            n in 4usize..12,
            threads in 1usize..4,
            batch in 1usize..5,
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let llm = HashLlm::new(tag.class_names().to_vec());
            let exec = Executor::new(&tag, &llm, 3, seed);

            let seq = exec.run_all_legacy(&predictor, &labels, &queries, |_| false).unwrap();
            let par_legacy = legacy::run_all_parallel(
                &exec, &predictor, &labels, &queries, |_| false, threads,
            )
            .unwrap();
            let par = Scheduler::new(&exec, SchedulePolicy::Parallel { threads })
                .run(&predictor, Labels::Fixed(&labels), &queries, |_| false)
                .unwrap()
                .outcome;
            let bat_legacy = legacy::run_all_batched(
                &exec, &predictor, &labels, &queries, |_| false, threads, batch,
            )
            .unwrap();
            let bat =
                Scheduler::new(&exec, SchedulePolicy::Batched { threads, batch_size: batch })
                    .run(&predictor, Labels::Fixed(&labels), &queries, |_| false)
                    .unwrap()
                    .outcome;

            prop_assert_eq!(&seq.records, &par_legacy.records);
            prop_assert_eq!(&seq.records, &par.records);
            prop_assert_eq!(&seq.records, &bat_legacy.records);
            prop_assert_eq!(&seq.records, &bat.records);
        }

        /// Deterministic cue-gated scheduling at width 1 *is* the legacy
        /// boosting loop: same records in the same order, same round
        /// traces, same relaxation path.
        #[test]
        fn cue_gated_deterministic_matches_legacy_boosting(
            seed in 0u64..10_000,
            n in 4usize..12,
            gamma1 in 0usize..4,
            gamma2 in 1usize..3,
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let config = BoostConfig { gamma1, gamma2 };
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let plan = PrunePlan::default();

            let llm_a = HashLlm::new(tag.class_names().to_vec());
            let exec_a = Executor::new(&tag, &llm_a, 3, seed);
            let mut labels_a = labels.clone();
            let (out_a, traces_a) = run_with_boosting_policy_legacy(
                &exec_a, &predictor, &mut labels_a, &queries, config, &plan,
                DegradePolicy::default(),
            )
            .unwrap();

            let llm_b = HashLlm::new(tag.class_names().to_vec());
            let exec_b = Executor::new(&tag, &llm_b, 3, seed);
            let mut labels_b = labels.clone();
            let (out_b, traces_b) = run_with_boosting_policy(
                &exec_b, &predictor, &mut labels_b, &queries, config, &plan,
                DegradePolicy::default(),
            )
            .unwrap();

            prop_assert_eq!(&out_a.records, &out_b.records);
            prop_assert_eq!(trace_fields(&traces_a), trace_fields(&traces_b));
            prop_assert_eq!(llm_a.meter().totals(), llm_b.meter().totals());
        }

        /// Width-N deterministic waves reproduce the width-1 stream bit
        /// for bit: labels are frozen per wave and records re-assemble in
        /// candidate order, so the pool width is unobservable.
        #[test]
        fn deterministic_waves_are_width_invariant(
            seed in 0u64..10_000,
            n in 4usize..12,
            threads in 2usize..5,
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let config = BoostConfig { gamma1: 2, gamma2: 2 };
            let predictor = KhopRandom::new(1, tag.num_nodes());

            let mut runs = Vec::new();
            for width in [1, threads, threads] {
                let llm = HashLlm::new(tag.class_names().to_vec());
                let exec = Executor::new(&tag, &llm, 3, seed);
                let mut l = labels.clone();
                let report = Scheduler::new(
                    &exec,
                    SchedulePolicy::CueGated {
                        config,
                        policy: DegradePolicy::default(),
                        threads: width,
                        deterministic: true,
                    },
                )
                .run(&predictor, Labels::Boosting(&mut l), &queries, |_| false)
                .unwrap();
                runs.push(report.outcome.records);
            }
            prop_assert_eq!(&runs[0], &runs[1], "width-N wave diverged from width 1");
            prop_assert_eq!(&runs[1], &runs[2], "two identical runs diverged");
        }

        /// Free-running cue-gated execution keeps the hard guarantees even
        /// though record order is timing-dependent: every query gets
        /// exactly one record and the cost ledger conserves.
        #[test]
        fn free_running_covers_every_query_and_conserves(
            seed in 0u64..10_000,
            n in 4usize..12,
            threads in 2usize..5,
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let llm = HashLlm::new(tag.class_names().to_vec());
            let ledger = CostLedger::new();
            let exec = Executor::new(&tag, &llm, 3, seed).with_sink(&ledger).with_degrade();
            let mut l = labels.clone();
            let report = Scheduler::new(
                &exec,
                SchedulePolicy::CueGated {
                    config: BoostConfig::default(),
                    policy: DegradePolicy::default(),
                    threads,
                    deterministic: false,
                },
            )
            .run(&predictor, Labels::Boosting(&mut l), &queries, |_| false)
            .unwrap();

            prop_assert_eq!(report.outcome.records.len(), queries.len());
            let mut nodes: Vec<u32> =
                report.outcome.records.iter().map(|r| r.node.0).collect();
            nodes.sort_unstable();
            let mut expected: Vec<u32> = queries.iter().map(|v| v.0).collect();
            expected.sort_unstable();
            prop_assert_eq!(nodes, expected, "a query was lost or duplicated");
            let cost = ledger.report();
            prop_assert!(cost.total.conserves(), "conservation violated: {}", cost);
            // Every executed (non-failed) query pseudo-labeled itself.
            for r in report.outcome.records.iter().filter(|r| !r.failed()) {
                prop_assert!(l.is_labeled(r.node));
            }
            prop_assert_eq!(
                report.rounds.iter().map(|t| t.executed).sum::<usize>(),
                queries.len()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The boosting shim is the legacy round loop under arbitrary
        /// seeded fault schedules, with and without degraded mode: the
        /// same records (retries, fallbacks and give-ups included), round
        /// traces, error and metered spend. At width 1 calls are issued in
        /// the legacy order, so the `(seed, call-index)`-keyed injector
        /// fires identically.
        #[test]
        fn cue_gated_deterministic_matches_legacy_under_faults(
            seed in 0u64..10_000,
            n in 4usize..12,
            fault_seed in 0u64..10_000,
            transient in 0.0f64..0.5,
            malformed in 0.0f64..0.3,
            degrade in any::<bool>(),
        ) {
            let tag = random_tag(seed, n, 3);
            let (queries, labels) = split(&tag);
            let predictor = KhopRandom::new(1, tag.num_nodes());
            let plan = PrunePlan::default();
            let policy = DegradePolicy { fallback_after: 1, give_up_after: 3 };
            let cfg = FaultConfig {
                transient_rate: transient,
                malformed_rate: malformed,
                ..FaultConfig::default()
            };
            let run = |oracle: bool| {
                let clock: Arc<dyn WaitClock> = Arc::new(ManualClock::new());
                let llm = FaultyLlm::new(
                    HashLlm::new(tag.class_names().to_vec()),
                    FaultSchedule::seeded(fault_seed, cfg),
                    clock,
                );
                let mut exec = Executor::new(&tag, &llm, 3, seed);
                if degrade {
                    exec = exec.with_degrade();
                }
                let mut l = labels.clone();
                let out = if oracle {
                    run_with_boosting_policy_legacy(
                        &exec, &predictor, &mut l, &queries, BoostConfig::default(), &plan,
                        policy,
                    )
                } else {
                    run_with_boosting_policy(
                        &exec, &predictor, &mut l, &queries, BoostConfig::default(), &plan,
                        policy,
                    )
                };
                let out = out
                    .map(|(o, traces)| (o.records, trace_fields(&traces)))
                    .map_err(|e| e.to_string());
                (out, llm.meter().totals())
            };
            let (legacy, legacy_spend) = run(true);
            let (sched, sched_spend) = run(false);
            prop_assert_eq!(legacy, sched);
            prop_assert_eq!(legacy_spend, sched_spend);
        }

        /// The readiness tracker's ready list equals a full
        /// `label_support` scan, element for element in pending order,
        /// after every step of a random interleaving of pseudo-label
        /// folds, failure downgrades, retries, dispatches and γ
        /// relaxations, for predictors of every cue radius.
        #[test]
        fn readiness_tracker_matches_a_full_scan(
            seed in 0u64..10_000,
            n in 6usize..24,
            which in 0usize..8,
            duplicate in any::<bool>(),
            gamma in (0usize..4, 0usize..3),
            steps in prop::collection::vec((0u8..5, 0usize..64, 0usize..64), 1..40),
        ) {
            let k = 3;
            let tag = random_tag(seed, n, k);
            let (mut order, mut labels) = split(&tag);
            if duplicate {
                order.push(order[0]);
            }
            let predictor = radius_predictors(&tag).swap_remove(which);
            let llm = HashLlm::new(tag.class_names().to_vec());
            let exec = Executor::new(&tag, &llm, 3, seed);
            let mut readiness = Readiness::new(&tag, predictor.cue_radius(), &order);
            let mut forced = HashSet::new();
            let (mut gamma1, mut gamma2) = gamma;
            // The model: which entries of `order` are pending.
            let mut live = vec![true; order.len()];
            let listed = |live: &[bool]| -> Vec<NodeId> {
                order.iter().zip(live).filter(|&(_, &l)| l).map(|(&v, _)| v).collect()
            };
            let drop_node = |live: &mut [bool], v: NodeId| {
                for (&u, l) in order.iter().zip(live.iter_mut()) {
                    *l &= u != v;
                }
            };

            for (op, a, b) in steps {
                let pending = listed(&live);
                match op {
                    // Fold: some node (a query that just finished, or any
                    // other) gains or changes a pseudo-label.
                    0 => {
                        let u = NodeId((a % n) as u32);
                        drop_node(&mut live, u);
                        readiness.remove(u);
                        labels.add_pseudo(u, ClassId((b % k) as u16));
                        readiness.labeled(u);
                    }
                    // Failure downgrade: a pending query is forced ready.
                    1 if !pending.is_empty() => {
                        let v = pending[a % pending.len()];
                        forced.insert(v);
                        readiness.touch(v);
                    }
                    // Relaxation, γ1 toward 0 and then γ2 toward K.
                    2 => {
                        if gamma1 > 0 {
                            gamma1 -= 1;
                        } else if gamma2 < k {
                            gamma2 += 1;
                        }
                    }
                    // Retry: a query is dispatched, fails, and its newest
                    // entry re-enters at its own place in pending order.
                    3 if !pending.is_empty() => {
                        let v = pending[a % pending.len()];
                        drop_node(&mut live, v);
                        readiness.remove(v);
                        live[order.iter().rposition(|&u| u == v).unwrap()] = true;
                        readiness.requeue(v);
                    }
                    // Dispatch everything ready, as the free-running path does.
                    4 => {
                        let ready = readiness.ready(
                            &exec, predictor.as_ref(), &labels,
                            |v| forced.contains(&v), gamma1, gamma2,
                        );
                        for v in ready {
                            drop_node(&mut live, v);
                            readiness.remove(v);
                        }
                    }
                    _ => {}
                }
                let pending = listed(&live);
                let expected = full_scan(
                    &exec, predictor.as_ref(), &labels, &pending, &forced, (gamma1, gamma2),
                );
                let got = readiness.ready(
                    &exec, predictor.as_ref(), &labels,
                    |v| forced.contains(&v), gamma1, gamma2,
                );
                prop_assert_eq!(&got, &expected, "{} after op {}", predictor.name(), op);
                prop_assert_eq!(readiness.pending(), pending);
            }
        }

        /// The `cue_radius` contract, per predictor: a label added farther
        /// than `r` hops from `v` leaves `select_neighbors(ctx, v, rng)`
        /// byte-equal, and every selected node lies within `r` hops.
        #[test]
        fn cue_radius_bounds_what_a_label_change_can_reach(
            seed in 0u64..10_000,
            n in 6usize..24,
            which in 0usize..8,
            v in 0usize..64,
            far in 0usize..64,
            class in 0u16..3,
        ) {
            let tag = random_tag(seed, n, 3);
            let (_, mut labels) = split(&tag);
            let predictor = radius_predictors(&tag).swap_remove(which);
            let Some(r) = predictor.cue_radius() else { return Ok(()) };
            let v = NodeId((v % n) as u32);
            let near: HashSet<NodeId> =
                mqo_graph::traversal::khop_nodes_alloc(tag.graph(), v, r)
                    .into_iter()
                    .map(|h| h.node)
                    .chain([v])
                    .collect();
            let select = |labels: &LabelStore| {
                let ctx = SelectCtx { tag: &tag, labels, max_neighbors: 3 };
                predictor.select_neighbors(&ctx, v, &mut StdRng::seed_from_u64(seed))
            };
            let before = select(&labels);
            for u in &before {
                prop_assert!(
                    near.contains(u),
                    "{} picked {:?} beyond {} hops", predictor.name(), u, r
                );
            }
            let outside: Vec<NodeId> = tag.node_ids().filter(|u| !near.contains(u)).collect();
            if outside.is_empty() {
                return Ok(());
            }
            let u = outside[far % outside.len()];
            labels.add_pseudo(u, ClassId(class));
            labels.ingest_remote(u, ClassId(class));
            prop_assert_eq!(
                before,
                select(&labels),
                "{} saw a label {} hops out", predictor.name(), r + 1
            );
        }
    }

    /// Cue-gated scheduling without a boosting label store is a config
    /// error, not a silent fixed-label run.
    #[test]
    fn cue_gated_requires_boosting_labels() {
        let tag = random_tag(7, 6, 2);
        let (queries, labels) = split(&tag);
        let llm = HashLlm::new(tag.class_names().to_vec());
        let exec = Executor::new(&tag, &llm, 3, 7);
        let err = Scheduler::new(
            &exec,
            SchedulePolicy::CueGated {
                config: BoostConfig::default(),
                policy: DegradePolicy::default(),
                threads: 2,
                deterministic: false,
            },
        )
        .run(
            &KhopRandom::new(1, tag.num_nodes()),
            Labels::Fixed(&labels),
            &queries,
            |_| false,
        );
        assert!(matches!(err, Err(Error::Config { .. })));
    }

    /// Answers like [`HashLlm`], but panics on every prompt whose target
    /// is `title` (and counts the panics).
    struct PanicOnTarget {
        inner: HashLlm,
        needle: String,
        panics: std::sync::atomic::AtomicUsize,
    }

    impl LanguageModel for PanicOnTarget {
        fn name(&self) -> &str {
            "panic-on-target"
        }

        fn complete(&self, prompt: &str) -> mqo_llm::Result<Completion> {
            if prompt.contains(&self.needle) {
                self.panics.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                panic!("deliberate model panic");
            }
            self.inner.complete(prompt)
        }

        fn meter(&self) -> &UsageMeter {
            self.inner.meter()
        }
    }

    /// A model panic is contained at every width and in both modes: the
    /// run finishes, each panic is one `WorkerLost`, and the panicked
    /// query escalates (text-only fallback, then give-up) to one failed
    /// record while every other query completes.
    #[test]
    fn a_model_panic_is_contained_at_every_width() {
        let tag = random_tag(5, 9, 3);
        let (queries, labels) = split(&tag);
        let target = queries[2];
        let policy = DegradePolicy::default();
        for (threads, deterministic) in [(1, true), (4, true), (4, false)] {
            let llm = PanicOnTarget {
                inner: HashLlm::new(tag.class_names().to_vec()),
                needle: format!("Title: {}\nAbstract:", tag.text(target).title),
                panics: Default::default(),
            };
            let sink = mqo_obs::Recorder::new();
            let exec = Executor::new(&tag, &llm, 3, 5).with_sink(&sink);
            let mut l = labels.clone();
            let report = Scheduler::new(
                &exec,
                SchedulePolicy::CueGated {
                    config: BoostConfig::default(),
                    policy,
                    threads,
                    deterministic,
                },
            )
            .run(
                &KhopRandom::new(1, tag.num_nodes()),
                Labels::Boosting(&mut l),
                &queries,
                |_| false,
            )
            .unwrap_or_else(|e| panic!("width {threads}: the run failed: {e}"));

            let panics = llm.panics.load(std::sync::atomic::Ordering::SeqCst);
            assert_eq!(panics, policy.give_up_after, "width {threads}: one panic per attempt");
            assert_eq!(sink.of_kind("worker_lost").len(), panics, "width {threads}");
            assert_eq!(report.outcome.records.len(), queries.len(), "width {threads}");
            for r in &report.outcome.records {
                assert_eq!(r.failed(), r.node == target, "width {threads}: node {}", r.node.0);
            }
            let failed = report.outcome.records.iter().find(|r| r.node == target).unwrap();
            assert!(failed.failure.as_deref().unwrap().contains("deliberate model panic"));
        }
    }

    /// A predictor that panics on every selection.
    struct PanicOnSelect;

    impl Predictor for PanicOnSelect {
        fn name(&self) -> &str {
            "panic-on-select"
        }

        fn select_neighbors(
            &self,
            _: &SelectCtx<'_>,
            _: NodeId,
            _: &mut StdRng,
        ) -> Vec<NodeId> {
            panic!("deliberate readiness panic");
        }
    }

    /// A panic on the coordinator (here in a readiness check) propagates
    /// to the caller instead of leaving the pool waiting on its queue.
    #[test]
    #[should_panic(expected = "deliberate readiness panic")]
    fn a_coordinator_panic_closes_the_pool_and_propagates() {
        let tag = random_tag(3, 8, 2);
        let (queries, labels) = split(&tag);
        let llm = HashLlm::new(tag.class_names().to_vec());
        let exec = Executor::new(&tag, &llm, 3, 3);
        let mut l = labels.clone();
        let _ = Scheduler::new(
            &exec,
            SchedulePolicy::CueGated {
                config: BoostConfig::default(),
                policy: DegradePolicy::default(),
                threads: 2,
                deterministic: false,
            },
        )
        .run(&PanicOnSelect, Labels::Boosting(&mut l), &queries, |_| false);
    }

    /// A hard budget clamps cue-gated runs to width 1 behind the barrier
    /// (spend order must be reproducible) and still never overshoots.
    #[test]
    fn cue_gated_budget_clamps_to_sequential_and_holds() {
        let tag = random_tag(11, 10, 2);
        let (queries, labels) = split(&tag);
        let llm = HashLlm::new(tag.class_names().to_vec());
        let exec = Executor::new(&tag, &llm, 3, 11).with_budget(200);
        let mut l = labels.clone();
        let report = Scheduler::new(
            &exec,
            SchedulePolicy::CueGated {
                config: BoostConfig::default(),
                policy: DegradePolicy::default(),
                threads: 4,
                deterministic: false,
            },
        )
        .run(&KhopRandom::new(1, tag.num_nodes()), Labels::Boosting(&mut l), &queries, |_| {
            false
        })
        .unwrap();
        assert_eq!(report.outcome.records.len(), queries.len());
        assert!(llm.meter().totals().prompt_tokens <= 200, "budget overshot");
    }
}
