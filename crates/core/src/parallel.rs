//! Worker-panic containment for the scheduler's pooled policies, and
//! the pre-scheduler pooled paths kept as test oracles. A panic inside
//! one query is contained to that query: the survivors drain the
//! remaining work, the panicked query is recorded as a failed outcome
//! ([`crate::executor::QueryRecord::failure`]), and
//! [`mqo_obs::Event::WorkerLost`] reports the containment. The tests
//! here pin that, and bit-for-bit equality with the sequential path, on
//! [`crate::Scheduler`]'s `Parallel` and `Batched` policies.

#[cfg(test)]
use {
    crate::error::{Error, Result},
    crate::executor::{ExecOutcome, Executor, QueryRecord},
    crate::labels::LabelStore,
    crate::predictor::Predictor,
    mqo_graph::NodeId,
    parking_lot::Mutex,
    std::panic::{catch_unwind, AssertUnwindSafe},
};

/// Render a caught panic payload to text (panics carry `&str` or `String`
/// in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The pre-scheduler pooled paths, kept verbatim as oracles for the
/// scheduler-equivalence proptests in [`crate::sched`].
#[cfg(test)]
pub(crate) mod legacy {
    use super::*;

    pub(crate) fn run_all_parallel(
        exec: &Executor<'_>,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: impl Fn(NodeId) -> bool + Sync,
        threads: usize,
    ) -> Result<ExecOutcome> {
        assert!(threads >= 1, "need at least one worker");
        if exec.budget.is_some() {
            return Err(Error::Config {
                detail: "hard budgets require sequential execution".into(),
            });
        }
        let slots: Vec<Mutex<Option<Result<QueryRecord>>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        for (i, &v) in queries.iter().enumerate() {
            if let Some(rec) = exec.replay_journaled(v) {
                *slots[i].lock() = Some(Ok(rec));
            }
        }
        let next = std::sync::atomic::AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let (next, slots, prune_set) = (&next, &slots, &prune_set);
            for worker in 0..threads {
                scope.spawn(move || {
                    mqo_obs::set_thread_track(worker as u32 + 1);
                    let started = exec.clock.now_micros();
                    let mut handled = 0u64;
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= queries.len() {
                            break;
                        }
                        if slots[i].lock().is_some() {
                            continue; // replayed from the journal
                        }
                        let v = queries[i];
                        let record = catch_unwind(AssertUnwindSafe(|| {
                            let mut rng = exec.query_rng(v);
                            exec.run_one(predictor, labels, v, &mut rng, prune_set(v))
                        }))
                        .unwrap_or_else(|payload| {
                            let detail = panic_message(payload);
                            exec.sink.emit(&mqo_obs::Event::WorkerLost {
                                worker: worker as u32,
                                node: v.0,
                                detail: detail.clone(),
                            });
                            Ok(exec.failed_record(v, format!("worker panicked: {detail}")))
                        });
                        if let Ok(rec) = &record {
                            exec.journal_record(rec);
                        }
                        handled += 1;
                        *slots[i].lock() = Some(record);
                    }
                    exec.sink.emit(&mqo_obs::Event::WorkerThroughput {
                        worker: worker as u32,
                        queries: handled,
                        wall_micros: exec.clock.now_micros().saturating_sub(started),
                    });
                });
            }
        });

        let mut out = ExecOutcome::default();
        for slot in slots {
            let record = slot.into_inner().expect("every slot filled")?;
            out.records.push(record);
        }
        Ok(out)
    }

    pub(crate) fn run_all_batched(
        exec: &Executor<'_>,
        predictor: &dyn Predictor,
        labels: &LabelStore,
        queries: &[NodeId],
        prune_set: impl Fn(NodeId) -> bool + Sync,
        threads: usize,
        batch_size: usize,
    ) -> Result<ExecOutcome> {
        assert!(threads >= 1, "need at least one worker");
        assert!(batch_size >= 1, "need a positive batch size");
        if exec.budget.is_some() {
            return Err(Error::Config {
                detail: "hard budgets require sequential execution".into(),
            });
        }

        let prompts: Vec<String> = queries
            .iter()
            .map(|&v| {
                catch_unwind(AssertUnwindSafe(|| {
                    let mut rng = exec.query_rng(v);
                    exec.render_for_estimate(predictor, labels, v, &mut rng, prune_set(v))
                }))
                .unwrap_or_default()
            })
            .collect();

        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by(|&a, &b| prompts[a].cmp(&prompts[b]).then(a.cmp(&b)));
        let batches: Vec<&[usize]> = order.chunks(batch_size).collect();

        let slots: Vec<Mutex<Option<Result<QueryRecord>>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        for (i, &v) in queries.iter().enumerate() {
            if let Some(rec) = exec.replay_journaled(v) {
                *slots[i].lock() = Some(Ok(rec));
            }
        }
        let next_batch = std::sync::atomic::AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let (next_batch, slots, prompts, batches, prune_set) =
                (&next_batch, &slots, &prompts, &batches, &prune_set);
            for worker in 0..threads {
                scope.spawn(move || {
                    mqo_obs::set_thread_track(worker as u32 + 1);
                    let started = exec.clock.now_micros();
                    let mut handled = 0u64;
                    loop {
                        let b = next_batch.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if b >= batches.len() {
                            break;
                        }
                        let batch = batches[b];
                        let batch_span = exec.tracer.span(
                            exec.sink,
                            "batch",
                            || format!("batch {b} ({} queries)", batch.len()),
                            exec.tracer.current_or(exec.span_scope()),
                        );
                        let shared: u64 = batch
                            .windows(2)
                            .map(|w| {
                                mqo_cache::common_prefix_tokens(&prompts[w[0]], &prompts[w[1]])
                                    as u64
                            })
                            .sum();
                        exec.sink.emit(&mqo_obs::Event::BatchDispatched {
                            batch: b as u32,
                            queries: batch.len() as u64,
                            shared_prefix_tokens: shared,
                        });
                        for &i in batch {
                            if slots[i].lock().is_some() {
                                continue; // replayed from the journal
                            }
                            let v = queries[i];
                            let record = catch_unwind(AssertUnwindSafe(|| {
                                let mut rng = exec.query_rng(v);
                                exec.run_one(predictor, labels, v, &mut rng, prune_set(v))
                            }))
                            .unwrap_or_else(|payload| {
                                let detail = panic_message(payload);
                                exec.sink.emit(&mqo_obs::Event::WorkerLost {
                                    worker: worker as u32,
                                    node: v.0,
                                    detail: detail.clone(),
                                });
                                Ok(exec.failed_record(v, format!("worker panicked: {detail}")))
                            });
                            if let Ok(rec) = &record {
                                exec.journal_record(rec);
                            }
                            handled += 1;
                            *slots[i].lock() = Some(record);
                        }
                        drop(batch_span);
                    }
                    exec.sink.emit(&mqo_obs::Event::WorkerThroughput {
                        worker: worker as u32,
                        queries: handled,
                        wall_micros: exec.clock.now_micros().saturating_sub(started),
                    });
                });
            }
        });

        let mut out = ExecOutcome::default();
        for slot in slots {
            let record = slot.into_inner().expect("every slot filled")?;
            out.records.push(record);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_fixtures::two_cliques;
    use crate::predictor::{KhopRandom, SelectCtx};
    use crate::sched::{Labels, SchedulePolicy, Scheduler};
    use mqo_data::{dataset, DatasetId};
    use mqo_graph::{LabeledSplit, SplitConfig};
    use mqo_llm::{LanguageModel, ModelProfile, SimLlm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let bundle = dataset(DatasetId::Cora, Some(0.3), 31);
        let tag = &bundle.tag;
        let split = LabeledSplit::generate(
            tag,
            SplitConfig::PerClass { per_class: 20, num_queries: 150 },
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        let llm = SimLlm::new(
            bundle.lexicon.clone(),
            tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let exec = Executor::new(tag, &llm, 4, 5);
        let labels = LabelStore::from_split(tag, &split);
        let predictor = KhopRandom::new(1, tag.num_nodes());

        let seq = exec.run_all(&predictor, &labels, split.queries(), |_| false).unwrap();
        let par = Scheduler::new(&exec, SchedulePolicy::Parallel { threads: 4 })
            .run(&predictor, Labels::Fixed(&labels), split.queries(), |_| false)
            .unwrap()
            .outcome;
        assert_eq!(seq.records, par.records, "parallel execution changed results");
        // Meter totals also agree (both runs doubled the counts).
        assert_eq!(llm.meter().totals().requests as usize, 2 * split.queries().len());
    }

    #[test]
    fn parallel_respects_prune_set() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..6).map(NodeId).collect();
        let out = Scheduler::new(&exec, SchedulePolicy::Parallel { threads: 3 })
            .run(&p, Labels::Fixed(&labels), &qs, |v| v.0 % 2 == 0)
            .unwrap()
            .outcome;
        for r in &out.records {
            assert_eq!(r.pruned, r.node.0 % 2 == 0 || r.neighbors_included == 0);
        }
    }

    #[test]
    fn hard_budget_is_rejected() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 2]);
        let exec = Executor::new(&tag, &llm, 4, 0).with_budget(100);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let err = Scheduler::new(&exec, SchedulePolicy::Parallel { threads: 2 }).run(
            &p,
            Labels::Fixed(&labels),
            &[NodeId(0)],
            |_| false,
        );
        assert!(matches!(err, Err(Error::Config { .. })));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["x"]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let _ = Scheduler::new(&exec, SchedulePolicy::Parallel { threads: 0 }).run(
            &p,
            Labels::Fixed(&labels),
            &[],
            |_| false,
        );
    }

    #[test]
    fn each_worker_reports_throughput() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 0).with_sink(&sink);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..6).map(NodeId).collect();
        Scheduler::new(&exec, SchedulePolicy::Parallel { threads: 3 })
            .run(&p, Labels::Fixed(&labels), &qs, |_| false)
            .unwrap();
        let reports = sink.of_kind("worker_throughput");
        assert_eq!(reports.len(), 3, "one report per worker");
        let total: u64 = reports
            .iter()
            .map(|e| match e {
                mqo_obs::Event::WorkerThroughput { queries, .. } => *queries,
                other => panic!("unexpected event {other:?}"),
            })
            .sum();
        assert_eq!(total, 6, "workers collectively handled every query");
    }

    #[test]
    fn batched_matches_sequential_bit_for_bit() {
        let bundle = dataset(DatasetId::Cora, Some(0.3), 31);
        let tag = &bundle.tag;
        let split = LabeledSplit::generate(
            tag,
            SplitConfig::PerClass { per_class: 20, num_queries: 120 },
            &mut StdRng::seed_from_u64(2),
        )
        .unwrap();
        let llm = SimLlm::new(
            bundle.lexicon.clone(),
            tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let exec = Executor::new(tag, &llm, 4, 5);
        let labels = LabelStore::from_split(tag, &split);
        let predictor = KhopRandom::new(1, tag.num_nodes());

        let seq = exec.run_all(&predictor, &labels, split.queries(), |_| false).unwrap();
        let bat = Scheduler::new(&exec, SchedulePolicy::Batched { threads: 4, batch_size: 16 })
            .run(&predictor, Labels::Fixed(&labels), split.queries(), |_| false)
            .unwrap()
            .outcome;
        assert_eq!(seq.records, bat.records, "batched execution changed results");
    }

    #[test]
    fn batches_are_dispatched_and_cover_every_query() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 12]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 0).with_sink(&sink);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let qs: Vec<NodeId> = (0..6).map(NodeId).collect();
        Scheduler::new(&exec, SchedulePolicy::Batched { threads: 2, batch_size: 4 })
            .run(&p, Labels::Fixed(&labels), &qs, |_| false)
            .unwrap();
        let dispatched = sink.of_kind("batch_dispatched");
        assert_eq!(dispatched.len(), 2, "6 queries at batch size 4 → 2 batches");
        let covered: u64 = dispatched
            .iter()
            .map(|e| match e {
                mqo_obs::Event::BatchDispatched { queries, .. } => *queries,
                other => panic!("unexpected event {other:?}"),
            })
            .sum();
        assert_eq!(covered, 6, "batches collectively cover every query");
    }

    #[test]
    fn batched_rejects_hard_budget() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 2]);
        let exec = Executor::new(&tag, &llm, 4, 0).with_budget(100);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let err = Scheduler::new(&exec, SchedulePolicy::Batched { threads: 2, batch_size: 4 })
            .run(&p, Labels::Fixed(&labels), &[NodeId(0)], |_| false);
        assert!(matches!(err, Err(Error::Config { .. })));
    }

    #[test]
    #[should_panic(expected = "positive batch size")]
    fn zero_batch_size_rejected() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["x"]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = KhopRandom::new(1, tag.num_nodes());
        let _ = Scheduler::new(&exec, SchedulePolicy::Batched { threads: 1, batch_size: 0 })
            .run(&p, Labels::Fixed(&labels), &[], |_| false);
    }

    /// A predictor that panics on a specific node — exercises panic
    /// containment in the worker loop.
    struct PanicOn(NodeId);

    impl Predictor for PanicOn {
        fn name(&self) -> &str {
            "panic-on"
        }
        fn select_neighbors(
            &self,
            _ctx: &SelectCtx<'_>,
            v: NodeId,
            _rng: &mut StdRng,
        ) -> Vec<NodeId> {
            if v == self.0 {
                panic!("deliberate test panic for node {}", v.0);
            }
            Vec::new()
        }
    }

    #[test]
    fn worker_panic_yields_failed_record_not_lost_run() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 6]);
        let sink = mqo_obs::Recorder::new();
        let exec = Executor::new(&tag, &llm, 4, 0).with_sink(&sink);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = PanicOn(NodeId(2));
        let qs: Vec<NodeId> = (0..4).map(NodeId).collect();
        let out = Scheduler::new(&exec, SchedulePolicy::Parallel { threads: 2 })
            .run(&p, Labels::Fixed(&labels), &qs, |_| false)
            .unwrap()
            .outcome;
        assert_eq!(out.records.len(), 4, "no completed query was lost");
        assert_eq!(out.failed(), 1);
        let failed = out.records.iter().find(|r| r.node == NodeId(2)).unwrap();
        assert!(failed.failed());
        assert!(
            failed.failure.as_deref().unwrap().contains("deliberate test panic"),
            "got: {:?}",
            failed.failure
        );
        assert!(!failed.correct);
        // The survivors completed normally.
        assert!(out.records.iter().filter(|r| r.node != NodeId(2)).all(|r| !r.failed()));
        // Containment is observable.
        match &sink.of_kind("worker_lost")[..] {
            [mqo_obs::Event::WorkerLost { node, detail, .. }] => {
                assert_eq!(*node, 2);
                assert!(detail.contains("deliberate test panic"));
            }
            other => panic!("expected one WorkerLost, got {other:?}"),
        }
        assert_eq!(sink.of_kind("query_failed").len(), 1);
    }

    #[test]
    fn batched_worker_panic_is_contained_too() {
        let tag = two_cliques();
        let llm = mqo_llm::ScriptedLlm::new(vec!["Category: ['Alpha']"; 6]);
        let exec = Executor::new(&tag, &llm, 4, 0);
        let labels = LabelStore::empty(tag.num_nodes());
        let p = PanicOn(NodeId(1));
        let qs: Vec<NodeId> = (0..4).map(NodeId).collect();
        let out = Scheduler::new(&exec, SchedulePolicy::Batched { threads: 2, batch_size: 2 })
            .run(&p, Labels::Fixed(&labels), &qs, |_| false)
            .unwrap()
            .outcome;
        assert_eq!(out.records.len(), 4);
        assert_eq!(out.failed(), 1);
        assert!(out.records.iter().find(|r| r.node == NodeId(1)).unwrap().failed());
    }
}
