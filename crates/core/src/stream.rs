//! Online (streaming) classification — the dynamic-node scenario from the
//! paper's introduction, with query boosting adapted to arrival order.
//!
//! Queries arrive one at a time. Immediate execution answers instantly but
//! wastes the boosting opportunity; the [`OnlineClassifier`] instead keeps
//! a small *pending buffer* and applies Algorithm 2's candidate rule
//! online: an arrival (or a buffered query) executes as soon as it has
//! enough reliable neighbor labels (`|N_i^L| ≥ γ1`, `LC_i ≤ γ2`), and the
//! buffer's oldest entry is force-executed when capacity is hit, bounding
//! latency. Executed queries feed pseudo-labels back, so later arrivals see
//! an ever-richer label store — boosting without ever seeing the whole
//! query set up front.

use crate::boosting::{label_support, BoostConfig};
use crate::error::Result;
use crate::executor::{Executor, QueryRecord};
use crate::labels::LabelStore;
use crate::predictor::{Predictor, SelectCtx};
use mqo_graph::NodeId;
use std::collections::VecDeque;

/// Configuration of the online classifier.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Boosting thresholds applied to arrivals.
    pub boost: BoostConfig,
    /// Maximum buffered (deferred) queries; 0 = execute immediately.
    pub max_pending: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig { boost: BoostConfig::default(), max_pending: 64 }
    }
}

/// Streaming classifier state.
pub struct OnlineClassifier<'a, 'e> {
    exec: &'a Executor<'e>,
    predictor: &'a dyn Predictor,
    labels: LabelStore,
    config: OnlineConfig,
    pending: VecDeque<NodeId>,
}

impl<'a, 'e> OnlineClassifier<'a, 'e> {
    /// New classifier over an executor, predictor, and initial labels.
    pub fn new(
        exec: &'a Executor<'e>,
        predictor: &'a dyn Predictor,
        initial_labels: LabelStore,
        config: OnlineConfig,
    ) -> Self {
        OnlineClassifier {
            exec,
            predictor,
            labels: initial_labels,
            config,
            pending: VecDeque::new(),
        }
    }

    /// Current label knowledge (ground truth + accumulated pseudo-labels).
    pub fn labels(&self) -> &LabelStore {
        &self.labels
    }

    /// Buffered queries awaiting enough neighbor-label support.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    fn supported(&self, v: NodeId) -> bool {
        let ctx = SelectCtx {
            tag: self.exec.tag,
            labels: &self.labels,
            max_neighbors: self.exec.max_neighbors,
        };
        let mut rng = self.exec.query_rng(v);
        let (count, kinds) = label_support(self.predictor, &ctx, v, &mut rng);
        count >= self.config.boost.gamma1 && kinds <= self.config.boost.gamma2
    }

    fn execute(&mut self, v: NodeId) -> Result<QueryRecord> {
        let mut rng = self.exec.query_rng(v);
        let record = self.exec.run_one(self.predictor, &self.labels, v, &mut rng, false)?;
        self.labels.add_pseudo(record.node, record.predicted);
        Ok(record)
    }

    /// Drain every buffered query that currently meets the candidate rule;
    /// newly executed queries can unlock further ones, so iterate to a
    /// fixed point.
    fn drain_supported(&mut self, out: &mut Vec<QueryRecord>) -> Result<()> {
        loop {
            let ready: Vec<NodeId> =
                self.pending.iter().copied().filter(|&v| self.supported(v)).collect();
            if ready.is_empty() {
                return Ok(());
            }
            self.pending.retain(|v| !ready.contains(v));
            for v in ready {
                out.push(self.execute(v)?);
            }
        }
    }

    /// Submit one arriving query. Returns every query executed as a
    /// result (possibly none — the arrival may be deferred — or several —
    /// the arrival's pseudo-label may unlock buffered queries).
    pub fn submit(&mut self, v: NodeId) -> Result<Vec<QueryRecord>> {
        let mut out = Vec::new();
        self.pending.push_back(v);
        self.drain_supported(&mut out)?;
        // Capacity bound: force the oldest pending query out.
        while self.pending.len() > self.config.max_pending {
            let oldest = self.pending.pop_front().expect("non-empty");
            out.push(self.execute(oldest)?);
            self.drain_supported(&mut out)?;
        }
        Ok(out)
    }

    /// Flush all buffered queries (end of stream), oldest first.
    pub fn flush(&mut self) -> Result<Vec<QueryRecord>> {
        let mut out = Vec::new();
        while let Some(v) = self.pending.pop_front() {
            out.push(self.execute(v)?);
            self.drain_supported(&mut out)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::KhopRandom;
    use mqo_data::{dataset, DatasetId};
    use mqo_graph::{LabeledSplit, SplitConfig};
    use mqo_llm::{ModelProfile, SimLlm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (mqo_data::DatasetBundle, LabeledSplit, SimLlm) {
        let bundle = dataset(DatasetId::Cora, Some(0.4), 41);
        let split = LabeledSplit::generate(
            &bundle.tag,
            SplitConfig::PerClass { per_class: 20, num_queries: 200 },
            &mut StdRng::seed_from_u64(2),
        )
        .unwrap();
        let llm = SimLlm::new(
            bundle.lexicon.clone(),
            bundle.tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        (bundle, split, llm)
    }

    #[test]
    fn every_arrival_is_answered_exactly_once() {
        let (bundle, split, llm) = world();
        let exec = Executor::new(&bundle.tag, &llm, 4, 3);
        let predictor = KhopRandom::new(2, bundle.tag.num_nodes());
        let mut online = OnlineClassifier::new(
            &exec,
            &predictor,
            LabelStore::from_split(&bundle.tag, &split),
            OnlineConfig { max_pending: 32, ..Default::default() },
        );
        let mut answered = Vec::new();
        for &v in split.queries() {
            answered.extend(online.submit(v).unwrap());
        }
        answered.extend(online.flush().unwrap());
        assert_eq!(online.pending(), 0);
        let mut nodes: Vec<u32> = answered.iter().map(|r| r.node.0).collect();
        nodes.sort_unstable();
        let mut expected: Vec<u32> = split.queries().iter().map(|v| v.0).collect();
        expected.sort_unstable();
        assert_eq!(nodes, expected);
    }

    #[test]
    fn deferral_is_bounded_by_capacity() {
        let (bundle, split, llm) = world();
        let exec = Executor::new(&bundle.tag, &llm, 4, 3);
        let predictor = KhopRandom::new(1, bundle.tag.num_nodes());
        let mut online = OnlineClassifier::new(
            &exec,
            &predictor,
            LabelStore::from_split(&bundle.tag, &split),
            OnlineConfig {
                boost: BoostConfig { gamma1: 4, gamma2: 1 }, // strict → defers a lot
                max_pending: 8,
            },
        );
        for &v in split.queries().iter().take(100) {
            online.submit(v).unwrap();
            assert!(online.pending() <= 8, "buffer exceeded capacity");
        }
    }

    #[test]
    fn online_boosting_accumulates_pseudo_labels_that_reach_prompts() {
        let (bundle, split, llm) = world();
        let exec = Executor::new(&bundle.tag, &llm, 4, 3);
        let predictor = KhopRandom::new(2, bundle.tag.num_nodes());
        let mut online = OnlineClassifier::new(
            &exec,
            &predictor,
            LabelStore::from_split(&bundle.tag, &split),
            OnlineConfig::default(),
        );
        let mut records = Vec::new();
        for &v in split.queries() {
            records.extend(online.submit(v).unwrap());
        }
        records.extend(online.flush().unwrap());
        let pseudo_uses: usize = records.iter().map(|r| r.pseudo_neighbors).sum();
        assert!(pseudo_uses > 0, "online boosting never used a pseudo-label");
        assert_eq!(online.labels().num_pseudo(), 200);
    }

    #[test]
    fn immediate_mode_executes_on_submit() {
        let (bundle, split, llm) = world();
        let exec = Executor::new(&bundle.tag, &llm, 4, 3);
        let predictor = KhopRandom::new(1, bundle.tag.num_nodes());
        let mut online = OnlineClassifier::new(
            &exec,
            &predictor,
            LabelStore::from_split(&bundle.tag, &split),
            OnlineConfig { max_pending: 0, ..Default::default() },
        );
        let out = online.submit(split.queries()[0]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(online.pending(), 0);
    }
}
