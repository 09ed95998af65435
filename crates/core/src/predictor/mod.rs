//! Benchmark "LLMs as predictors" methods (Table I).
//!
//! A [`Predictor`] is *only* a neighbor-selection rule; prompt rendering,
//! LLM calls, and answer parsing are shared by the [`crate::executor`].
//! That factoring is what makes the paper's strategies plug-and-play: token
//! pruning empties the selection, query boosting changes the label
//! knowledge the selection sees — neither touches the method itself.

mod khop;
mod llm_ranked;
mod sns;
mod zero_shot;

pub use khop::KhopRandom;
pub use llm_ranked::LlmRanked;
pub use sns::Sns;
pub use zero_shot::ZeroShot;

use crate::labels::LabelStore;
use mqo_graph::{NodeId, Tag};
use rand::rngs::StdRng;

/// Read-only context handed to neighbor selection.
pub struct SelectCtx<'a> {
    /// The graph being queried.
    pub tag: &'a Tag,
    /// Current label knowledge (`V_L` plus accumulated pseudo-labels).
    pub labels: &'a LabelStore,
    /// Maximum neighbors per prompt (the paper's `M`).
    pub max_neighbors: usize,
}

/// A neighbor-selection method.
pub trait Predictor: Send + Sync {
    /// Method display name, e.g. `"1-hop random"`.
    fn name(&self) -> &str;

    /// Whether the method ranks neighbors by relevance (SNS adds the
    /// "most related to least related" clause to the prompt).
    fn ranked(&self) -> bool {
        false
    }

    /// Select up to `ctx.max_neighbors` neighbors for query node `v` given
    /// the current label knowledge.
    fn select_neighbors(&self, ctx: &SelectCtx<'_>, v: NodeId, rng: &mut StdRng)
        -> Vec<NodeId>;

    /// The cue radius `r`: every node `select_neighbors(ctx, v, rng)`
    /// returns lies within `r` hops of `v`, and a label change farther
    /// than `r` hops from `v` cannot change what it returns. The
    /// cue-gated scheduler relies on it to re-check readiness only for
    /// the pending queries near a newly labeled node. `None` (the
    /// default) promises nothing, and every label change re-checks every
    /// pending query.
    fn cue_radius(&self) -> Option<u8> {
        None
    }

    /// Render one selected neighbor as a prompt entry. The default uses the
    /// neighbor's full title plus its known label; instruction-tuned
    /// variants override this (e.g. graph-token backbones compress the raw
    /// text away, §VI-I).
    fn entry_for(&self, ctx: &SelectCtx<'_>, n: NodeId) -> mqo_llm::NeighborEntry {
        mqo_llm::NeighborEntry {
            title: ctx.tag.text(n).title.clone(),
            label: ctx.labels.get(n).map(|c| ctx.tag.class_name(c).to_string()),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Shared fixtures for predictor and executor tests.
    use mqo_graph::{ClassId, GraphBuilder, NodeText, Tag};

    /// A 12-node, 2-class graph: two 6-cliques joined by one bridge edge.
    /// Nodes 0-5 class 0, nodes 6-11 class 1.
    pub fn two_cliques() -> Tag {
        let mut b = GraphBuilder::new(12);
        for base in [0u32, 6] {
            for i in base..base + 6 {
                for j in i + 1..base + 6 {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        b.add_edge(5, 6).unwrap();
        let texts = (0..12)
            .map(|i| NodeText::new(format!("title node{i}"), format!("body of node {i}")))
            .collect();
        let labels = (0..12).map(|i| ClassId::from((i >= 6) as usize)).collect();
        Tag::new("cliques", b.build(), texts, labels, vec!["Alpha".into(), "Beta".into()])
            .unwrap()
    }
}
