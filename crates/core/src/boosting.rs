//! The query boosting strategy (Algorithm 2) and the scheduling /
//! utilization analysis behind Fig. 8.
//!
//! Queries run in rounds. Each round selects candidates with enough
//! reliable neighbor labels (`|N_i^L| ≥ γ1`) and few conflicting label
//! kinds (`LC_i ≤ γ2`); executed queries contribute pseudo-labels that
//! enrich the neighbor text of later rounds. When no query qualifies, the
//! thresholds relax incrementally (γ1 down first, then γ2 up), preserving
//! the reliability ordering while guaranteeing termination.

use crate::error::Result;
use crate::executor::{ExecOutcome, Executor};
use crate::labels::LabelStore;
use crate::predictor::{Predictor, SelectCtx};
use crate::pruning::PrunePlan;
use mqo_graph::traversal::{khop_nodes, sample_prefer_labeled, KhopBuffer};
use mqo_graph::{NodeId, Tag};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// Query boosting thresholds (paper defaults: γ1 = 3, γ2 = 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoostConfig {
    /// Minimum neighbor labels for candidacy.
    pub gamma1: usize,
    /// Maximum distinct neighbor-label kinds for candidacy.
    pub gamma2: usize,
}

impl Default for BoostConfig {
    fn default() -> Self {
        BoostConfig { gamma1: 3, gamma2: 2 }
    }
}

/// Per-round execution trace (for tests and the Fig. 8 analysis).
#[derive(Debug, Clone)]
pub struct RoundTrace {
    /// Queries executed this round.
    pub executed: usize,
    /// γ1/γ2 in effect when the round's candidates were selected.
    pub gamma1: usize,
    /// See [`RoundTrace::gamma1`].
    pub gamma2: usize,
}

/// How boosting treats queries that fail under a degraded executor
/// ([`Executor::with_degrade`]). Failed queries produce no pseudo-label —
/// the γ1/γ2 rule naturally treats them as unexecuted — and are retried
/// in later rounds with escalating fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// After this many failures, retry the query *text-only* (pruned-style,
    /// no neighbor enrichment): repeated failures are often prompt-size
    /// correlated, and the neighbor-free prompt is the cheapest to re-send.
    pub fallback_after: usize,
    /// After this many failures, stop retrying and record the failed
    /// outcome permanently. Bounds total work under a hard outage, so the
    /// round loop always terminates.
    pub give_up_after: usize,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy { fallback_after: 2, give_up_after: 4 }
    }
}

/// Count `|N_i^L|` and `LC_i` over a query's *selected* neighbor set.
pub(crate) fn label_support(
    predictor: &dyn Predictor,
    ctx: &SelectCtx<'_>,
    v: NodeId,
    rng: &mut StdRng,
) -> (usize, usize) {
    let selected = predictor.select_neighbors(ctx, v, rng);
    // Distinct classes without allocating: a class counts at its first
    // selection (at most `M` neighbors, so the scan back is short).
    let (mut count, mut kinds) = (0usize, 0usize);
    for (i, &n) in selected.iter().enumerate() {
        let Some(c) = ctx.labels.get(n) else { continue };
        count += 1;
        if selected[..i].iter().all(|&m| ctx.labels.get(m) != Some(c)) {
            kinds += 1;
        }
    }
    (count, kinds)
}

/// Run Algorithm 2: boosting over `queries` with optional pruning composed
/// in (`plan` queries execute without neighbor text but still produce
/// pseudo-labels; they are scheduled in the first round since they cannot
/// be enriched and their early pseudo-labels benefit everyone else).
///
/// Uses the default [`DegradePolicy`]; see [`run_with_boosting_policy`]
/// for the failure semantics under a degraded executor.
pub fn run_with_boosting(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    labels: &mut LabelStore,
    queries: &[NodeId],
    config: BoostConfig,
    plan: &PrunePlan,
) -> Result<(ExecOutcome, Vec<RoundTrace>)> {
    run_with_boosting_policy(
        exec,
        predictor,
        labels,
        queries,
        config,
        plan,
        DegradePolicy::default(),
    )
}

/// [`run_with_boosting`] with an explicit failure policy.
///
/// Under a degraded executor ([`Executor::with_degrade`]) a failed query
/// contributes **no pseudo-label** — the γ1/γ2 candidacy rule therefore
/// treats it as unexecuted, exactly like a query that never ran — and
/// stays pending for later rounds. After `policy.fallback_after` failures
/// it retries text-only (neighbor-free); after `policy.give_up_after`
/// failures the failed outcome is recorded permanently. With a journal
/// attached ([`Executor::with_journal`]), previously completed queries
/// replay before round one and each round is sealed (fsync'd) as it
/// completes.
///
/// Shim over the event-driven scheduler's cue-gated policy in
/// deterministic (wave) mode at width 1 (see
/// [`crate::sched::Scheduler`]); semantics are unchanged.
pub fn run_with_boosting_policy(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    labels: &mut LabelStore,
    queries: &[NodeId],
    config: BoostConfig,
    plan: &PrunePlan,
    policy: DegradePolicy,
) -> Result<(ExecOutcome, Vec<RoundTrace>)> {
    let report = crate::sched::Scheduler::new(
        exec,
        crate::sched::SchedulePolicy::CueGated {
            config,
            policy,
            threads: 1,
            deterministic: true,
        },
    )
    .run(predictor, crate::sched::Labels::Boosting(labels), queries, |v| plan.is_pruned(v))?;
    Ok((report.outcome, report.rounds))
}

/// The pre-scheduler round loop, kept verbatim as the oracle for the
/// scheduler-equivalence proptests in [`crate::sched`].
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_with_boosting_policy_legacy(
    exec: &Executor<'_>,
    predictor: &dyn Predictor,
    labels: &mut LabelStore,
    queries: &[NodeId],
    config: BoostConfig,
    plan: &PrunePlan,
    policy: DegradePolicy,
) -> Result<(ExecOutcome, Vec<RoundTrace>)> {
    assert!(policy.give_up_after >= 1, "give_up_after must be positive");
    let mut pending: Vec<NodeId> = queries.to_vec();
    let mut out = ExecOutcome::default();

    // Crash-safe resume: queries the journal already holds replay with
    // zero LLM requests. Their pseudo-labels are folded in up front so
    // the remaining rounds see the same label knowledge they would have
    // accumulated live (failed queries never pseudo-label).
    let replayed: Vec<_> = pending.iter().filter_map(|&v| exec.replay_journaled(v)).collect();
    if !replayed.is_empty() {
        let done: HashSet<NodeId> = replayed.iter().map(|r| r.node).collect();
        pending.retain(|v| !done.contains(v));
        for r in &replayed {
            if !r.failed() {
                labels.add_pseudo(r.node, r.predicted);
            }
        }
        out.records.extend(replayed);
    }

    let mut traces = Vec::new();
    let mut gamma1 = config.gamma1;
    let mut gamma2 = config.gamma2;
    let k = exec.tag.num_classes();
    // Consecutive failures per node, for the fallback/give-up escalation.
    let mut failures: std::collections::HashMap<NodeId, usize> =
        std::collections::HashMap::new();
    let force_prune = |failures: &std::collections::HashMap<NodeId, usize>, v: NodeId| {
        plan.is_pruned(v) || failures.get(&v).is_some_and(|&n| n >= policy.fallback_after)
    };

    while !pending.is_empty() {
        // Step 1: candidate selection with incremental relaxation.
        let candidates: Vec<NodeId> = loop {
            let ctx = SelectCtx { tag: exec.tag, labels, max_neighbors: exec.max_neighbors };
            let mut c = Vec::new();
            for &v in &pending {
                if force_prune(&failures, v) {
                    // Pruned (or failure-downgraded) queries can't be
                    // enriched; run them now.
                    c.push(v);
                    continue;
                }
                // Per-node rng: N_i only changes when label knowledge does.
                let mut rng = exec.query_rng(v);
                let (n_l, lc) = label_support(predictor, &ctx, v, &mut rng);
                if n_l >= gamma1 && lc <= gamma2 {
                    c.push(v);
                }
            }
            if !c.is_empty() {
                break c;
            }
            // Relax: γ1 down to zero first, then γ2 up to K (at (0, K)
            // every query qualifies, so this terminates).
            if gamma1 > 0 {
                gamma1 -= 1;
            } else if gamma2 < k {
                gamma2 += 1;
            } else {
                break pending.clone();
            }
        };

        // Scope query spans under this round's span (restored after the
        // round so a trailing caller-side scope survives).
        let round_index = traces.len();
        let round_span = exec.tracer.span(
            exec.sink,
            "round",
            || format!("round {round_index}"),
            exec.tracer.current_or(exec.span_scope()),
        );
        let outer_scope = exec.span_scope();
        exec.set_span_scope(round_span.id());

        // Steps 2–3: execute candidates, then fold their pseudo-labels in.
        // Labels are frozen during the round (all candidates see the same
        // knowledge state, as in Algorithm 2). A failed candidate stays
        // pending (no record yet) unless it has exhausted its retries.
        let mut round_records = Vec::with_capacity(candidates.len());
        for &v in &candidates {
            let mut rng = exec.query_rng(v);
            let record =
                exec.run_one(predictor, labels, v, &mut rng, force_prune(&failures, v));
            match record {
                Ok(r) if r.failed() => {
                    let n = failures.entry(v).or_insert(0);
                    *n += 1;
                    if *n >= policy.give_up_after {
                        round_records.push(r); // permanent failed outcome
                    }
                }
                Ok(r) => {
                    failures.remove(&v);
                    round_records.push(r);
                }
                Err(e) => {
                    exec.set_span_scope(outer_scope);
                    return Err(e);
                }
            }
        }
        exec.set_span_scope(outer_scope);
        drop(round_span);
        traces.push(RoundTrace { executed: round_records.len(), gamma1, gamma2 });
        for r in &round_records {
            if !r.failed() {
                labels.add_pseudo(r.node, r.predicted);
            }
        }
        exec.sink.emit(&mqo_obs::Event::RoundCompleted {
            round: round_index as u32,
            executed: round_records.len() as u64,
            gamma1: gamma1 as u64,
            gamma2: gamma2 as u64,
            pseudo_label_uses: round_records.iter().map(|r| r.pseudo_neighbors as u64).sum(),
        });
        // Journal the round's *final* outcomes (retried failures are not
        // final), then seal: the seal fsyncs, making the round durable.
        for r in &round_records {
            exec.journal_record(r);
        }
        if let Some(j) = exec.journal {
            j.seal_round(round_index as u32);
        }
        let finished: HashSet<NodeId> = round_records.iter().map(|r| r.node).collect();
        out.records.extend(round_records);
        pending.retain(|v| !finished.contains(v));
    }
    Ok((out, traces))
}

/// Fig. 8 pseudo-label utilization analysis.
///
/// Simulates the round structure without LLM calls (pseudo-labels are
/// stand-ins, per the paper's footnote 3: conflicting-label thresholds are
/// skipped, and "we merely simulate LLMs to generate pseudo-labels"):
/// queries are split into `rounds` rounds — randomly (unscheduled) or by
/// descending neighbor-label count over all unexecuted queries
/// (scheduled).
///
/// Utilization counts "how many times pseudo-labels generated by earlier
/// queries are used to enrich the neighbor text of later queries": the
/// pseudo-label slots in each query's neighbor selection at execution
/// time. The scheduler orders by neighbor-label support (descending, the
/// paper's rule) and breaks ties by *deferring* queries with many
/// still-pending neighbor queries — exactly the queries whose "opportunities
/// to integrate pseudo-labels from earlier executed queries" grow the most
/// by waiting (§V-B).
#[allow(clippy::too_many_arguments)] // an analysis entry point mirroring the Fig. 8 config axes
pub fn pseudo_label_utilization(
    tag: &Tag,
    initial_labels: &LabelStore,
    queries: &[NodeId],
    k_hops: u8,
    max_neighbors: usize,
    rounds: usize,
    scheduled: bool,
    seed: u64,
) -> u64 {
    assert!(rounds >= 1);
    let mut labels = initial_labels.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = KhopBuffer::new(tag.num_nodes());
    let mut scratch = Vec::new();
    let mut pending: Vec<NodeId> = queries.to_vec();
    if !scheduled {
        pending.shuffle(&mut rng);
    }
    let per_round = queries.len().div_ceil(rounds);
    let mut utilization = 0u64;

    while !pending.is_empty() {
        let pending_set: HashSet<NodeId> = pending.iter().copied().collect();
        let batch: Vec<NodeId> = if scheduled {
            // Primary key: current labeled-neighbor support, descending
            // (the paper's rule). Tie-break: pending query-neighbors,
            // ascending — queries surrounded by still-pending queries gain
            // the most by waiting.
            let mut support: Vec<(NodeId, usize, usize)> = pending
                .iter()
                .map(|&v| {
                    khop_nodes(tag.graph(), v, k_hops, &mut buf, &mut scratch);
                    let labeled = scratch.iter().filter(|h| labels.is_labeled(h.node)).count();
                    let pending_neighbors =
                        scratch.iter().filter(|h| pending_set.contains(&h.node)).count();
                    (v, labeled, pending_neighbors)
                })
                .collect();
            support.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
            support.into_iter().take(per_round).map(|(v, _, _)| v).collect()
        } else {
            pending.iter().take(per_round).copied().collect()
        };

        // Execute the batch: count pseudo-labels that land in prompts.
        for &v in &batch {
            khop_nodes(tag.graph(), v, k_hops, &mut buf, &mut scratch);
            let selected = sample_prefer_labeled(
                &scratch,
                max_neighbors,
                |n| labels.is_labeled(n),
                &mut rng,
            );
            utilization += selected.iter().filter(|h| labels.is_pseudo(h.node)).count() as u64;
        }
        // Pseudo-labels appear after the whole round, as in Algorithm 2.
        for &v in &batch {
            labels.add_pseudo(v, tag.label(v));
        }
        let executed: HashSet<NodeId> = batch.into_iter().collect();
        pending.retain(|v| !executed.contains(v));
    }
    utilization
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_fixtures::two_cliques;
    use crate::predictor::KhopRandom;
    use mqo_graph::ClassId;
    use mqo_llm::{LanguageModel, ScriptedLlm};

    /// `|N_i^L|` counts every labeled selection and `LC_i` each class
    /// once, whatever its id.
    #[test]
    fn label_support_counts_labels_and_distinct_classes() {
        let tag = two_cliques();
        let mut labels = LabelStore::empty(tag.num_nodes());
        for (v, c) in [(1, 0), (2, 300), (3, 0), (4, 300), (5, 7)] {
            labels.add_pseudo(NodeId(v), ClassId(c));
        }
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 10 };
        let p = KhopRandom::new(1, tag.num_nodes());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(label_support(&p, &ctx, NodeId(0), &mut rng), (5, 3));
        // Node 6's clique is unlabeled; only the bridge to 5 carries one.
        assert_eq!(label_support(&p, &ctx, NodeId(6), &mut rng), (1, 1));
    }

    #[test]
    fn boosting_executes_every_query_exactly_once() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec = Executor::new(&tag, &llm, 4, 3);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(7), NodeId(9)];
        let (out, traces) = run_with_boosting(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 2, gamma2: 2 },
            &PrunePlan::default(),
        )
        .unwrap();
        assert_eq!(out.records.len(), 4);
        let mut seen: Vec<u32> = out.records.iter().map(|r| r.node.0).collect();
        seen.sort();
        assert_eq!(seen, vec![0, 2, 7, 9]);
        assert!(!traces.is_empty());
        // All executed queries became pseudo-labeled.
        for v in &qs {
            assert!(labels.is_labeled(*v));
        }
    }

    #[test]
    fn rounds_are_visible_to_telemetry() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 3).with_sink(&sink);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(7), NodeId(9)];
        let (out, traces) = run_with_boosting(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 2, gamma2: 2 },
            &PrunePlan::default(),
        )
        .unwrap();
        let rounds = sink.of_kind("round_completed");
        assert_eq!(rounds.len(), traces.len(), "one event per round");
        let (mut executed_total, mut pseudo_total) = (0u64, 0u64);
        for (i, e) in rounds.iter().enumerate() {
            match e {
                mqo_obs::Event::RoundCompleted {
                    round,
                    executed,
                    gamma1,
                    gamma2,
                    pseudo_label_uses,
                } => {
                    assert_eq!(*round as usize, i);
                    assert_eq!(*executed, traces[i].executed as u64);
                    assert_eq!(*gamma1, traces[i].gamma1 as u64);
                    assert_eq!(*gamma2, traces[i].gamma2 as u64);
                    executed_total += executed;
                    pseudo_total += pseudo_label_uses;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(executed_total as usize, out.records.len());
        assert_eq!(pseudo_total, out.pseudo_label_uses());
        // The per-query stream is emitted alongside the round stream.
        assert_eq!(sink.of_kind("query_executed").len(), out.records.len());
    }

    #[test]
    fn relaxation_terminates_with_no_labels_at_all() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Beta']"; 12]);
        let exec = Executor::new(&tag, &llm, 4, 1);
        let mut labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..12).map(NodeId).collect();
        let (out, traces) = run_with_boosting(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig::default(),
            &PrunePlan::default(),
        )
        .unwrap();
        assert_eq!(out.records.len(), 12);
        // γ1 must have relaxed to 0 for the first round to fire.
        assert_eq!(traces[0].gamma1, 0);
    }

    #[test]
    fn later_rounds_see_pseudo_labels_from_earlier_rounds() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec = Executor::new(&tag, &llm, 6, 5);
        let mut labels = LabelStore::empty(tag.num_nodes());
        // Seed: three ground-truth labels in clique A so its queries
        // qualify first.
        for v in [1u32, 2, 3] {
            labels.add_pseudo(NodeId(v), ClassId(0));
        }
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs = vec![NodeId(0), NodeId(4), NodeId(5)];
        let (out, _) = run_with_boosting(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 3, gamma2: 1 },
            &PrunePlan::default(),
        )
        .unwrap();
        let total_pseudo_uses: usize = out.records.iter().map(|r| r.pseudo_neighbors).sum();
        assert!(total_pseudo_uses > 0, "no pseudo-label ever reached a prompt");
    }

    #[test]
    fn pruned_queries_run_first_without_neighbors() {
        let tag = two_cliques();
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec = Executor::new(&tag, &llm, 4, 2);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs = vec![NodeId(0), NodeId(2)];
        let plan = PrunePlan::from_set([NodeId(2)].into_iter().collect());
        let (out, _) = run_with_boosting(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 1, gamma2: 2 },
            &plan,
        )
        .unwrap();
        let rec2 = out.records.iter().find(|r| r.node == NodeId(2)).unwrap();
        assert!(rec2.pruned);
        assert_eq!(rec2.neighbors_included, 0);
    }

    #[test]
    fn failed_queries_retry_then_give_up_without_pseudo_labels() {
        let tag = two_cliques();
        // Three good answers, then the script runs dry: every later call
        // fails. Under degrade the failing queries retry per the policy
        // and are finally recorded as failed.
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 3]);
        let exec = Executor::new(&tag, &llm, 4, 0).with_degrade();
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(4), NodeId(7), NodeId(9)];
        let policy = DegradePolicy { fallback_after: 1, give_up_after: 3 };
        let (out, _) = run_with_boosting_policy(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 1, gamma2: 2 },
            &PrunePlan::default(),
            policy,
        )
        .unwrap();
        assert_eq!(out.records.len(), qs.len(), "every query got a final record");
        assert_eq!(out.failed(), qs.len() - 3, "script had three answers");
        for r in out.records.iter().filter(|r| r.failed()) {
            // After `fallback_after` failures retries go text-only, so the
            // final (given-up) attempt is neighbor-free.
            assert!(r.pruned, "given-up query retried with neighbor text");
            assert_eq!(r.neighbors_included, 0);
            assert!(!labels.is_pseudo(r.node), "failed query pseudo-labeled itself");
        }
        for r in out.records.iter().filter(|r| !r.failed()) {
            assert!(labels.is_labeled(r.node));
        }
    }

    #[test]
    fn journaled_boosting_resumes_with_zero_rebilled_tokens() {
        let tag = two_cliques();
        let header = crate::journal::RunHeader {
            dataset: "two-cliques".into(),
            method: "khop".into(),
            seed: 0,
            queries: 4,
            boost: true,
            budget: None,
        };
        let dir = std::env::temp_dir().join("mqo-boost-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let qs: Vec<NodeId> = vec![NodeId(0), NodeId(2), NodeId(7), NodeId(9)];
        let p = KhopRandom::new(1, tag.num_nodes());

        // First run: everything completes and lands in the journal.
        let llm = ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let journal = crate::journal::RunJournal::create(&path, &header).unwrap();
        let exec = Executor::new(&tag, &llm, 4, 0).with_journal(&journal);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let (first, _) = run_with_boosting(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 2, gamma2: 2 },
            &PrunePlan::default(),
        )
        .unwrap();
        let billed = llm.meter().totals();
        assert!(billed.requests > 0);
        drop(journal);

        // Resume against a model that would fail if asked anything: every
        // query replays from the journal, bit-identical, for free.
        let empty = ScriptedLlm::new(Vec::<String>::new());
        let journal = crate::journal::RunJournal::resume(&path, &header).unwrap();
        let exec = Executor::new(&tag, &empty, 4, 0).with_journal(&journal);
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(1), ClassId(0));
        let (second, _) = run_with_boosting(
            &exec,
            &p,
            &mut labels,
            &qs,
            BoostConfig { gamma1: 2, gamma2: 2 },
            &PrunePlan::default(),
        )
        .unwrap();
        assert_eq!(empty.meter().totals().requests, 0, "replay sent a request");
        assert_eq!(empty.meter().totals().prompt_tokens, 0, "replay re-billed tokens");
        assert_eq!(journal.replayed(), qs.len() as u64);
        let mut a = first.records.clone();
        let mut b = second.records.clone();
        a.sort_by_key(|r| r.node.0);
        b.sort_by_key(|r| r.node.0);
        assert_eq!(a, b, "replayed records differ from the originals");
    }

    #[test]
    fn utilization_counts_pseudo_slots_only() {
        // On the dense clique fixture every selection slot eventually fills
        // with pseudo-labels; both schedulers must report positive, bounded
        // utilization. (The scheduled-vs-random comparison itself needs a
        // heterogeneous graph and lives in the fig8 integration test.)
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let qs: Vec<NodeId> = (0..12).map(NodeId).collect();
        for scheduled in [false, true] {
            let u = pseudo_label_utilization(&tag, &labels, &qs, 1, 4, 4, scheduled, 3);
            assert!(u > 0, "no utilization at all (scheduled={scheduled})");
            // Upper bound: every query can use at most M pseudo-labels.
            assert!(u <= (qs.len() * 4) as u64);
        }
    }

    #[test]
    fn utilization_is_zero_with_a_single_round() {
        // Everything executes in round 1 → no pseudo-label can be reused.
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let qs: Vec<NodeId> = (0..12).map(NodeId).collect();
        assert_eq!(pseudo_label_utilization(&tag, &labels, &qs, 1, 4, 1, true, 0), 0);
    }
}
