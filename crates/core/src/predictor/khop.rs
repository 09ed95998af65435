//! k-hop random neighbor selection (Table I).
//!
//! "Neighbors are selected within the k-hop range of the query node, with a
//! preference for labeled neighbors followed by a random selection from
//! unlabeled neighbors, up to a fixed number limit M."

use super::{Predictor, SelectCtx};
use mqo_graph::traversal::{khop_nodes, sample_prefer_labeled, KhopBuffer};
use mqo_graph::NodeId;
use parking_lot::Mutex;
use rand::rngs::StdRng;

/// The k-hop random method; `k = 1` and `k = 2` are the paper's variants.
pub struct KhopRandom {
    k: u8,
    name: String,
    /// Reusable BFS scratch, shared behind a lock so the predictor can be
    /// `&self` in the trait. Pooled runs contend on it: the scheduler's
    /// readiness checks and every worker's prompt render take it, each
    /// for one BFS plus one sample.
    buf: Mutex<(KhopBuffer, Vec<mqo_graph::traversal::HopNode>)>,
}

impl KhopRandom {
    /// Method for a graph with `num_nodes` nodes and hop range `k ≥ 1`.
    pub fn new(k: u8, num_nodes: usize) -> Self {
        assert!(k >= 1, "k-hop random needs k >= 1");
        KhopRandom {
            k,
            name: format!("{k}-hop random"),
            buf: Mutex::new((KhopBuffer::new(num_nodes), Vec::new())),
        }
    }

    /// The hop range.
    pub fn k(&self) -> u8 {
        self.k
    }
}

impl Predictor for KhopRandom {
    fn name(&self) -> &str {
        &self.name
    }

    fn cue_radius(&self) -> Option<u8> {
        Some(self.k)
    }

    fn select_neighbors(
        &self,
        ctx: &SelectCtx<'_>,
        v: NodeId,
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let mut guard = self.buf.lock();
        let (buf, scratch) = &mut *guard;
        khop_nodes(ctx.tag.graph(), v, self.k, buf, scratch);
        sample_prefer_labeled(scratch, ctx.max_neighbors, |n| ctx.labels.is_labeled(n), rng)
            .into_iter()
            .map(|h| h.node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelStore;
    use crate::predictor::test_fixtures::two_cliques;
    use mqo_graph::ClassId;
    use rand::SeedableRng;

    #[test]
    fn one_hop_stays_within_direct_neighbors() {
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 10 };
        let p = KhopRandom::new(1, tag.num_nodes());
        let mut rng = StdRng::seed_from_u64(1);
        let picked = p.select_neighbors(&ctx, NodeId(0), &mut rng);
        assert_eq!(picked.len(), 5); // clique neighbors only
        for n in picked {
            assert!(tag.graph().has_edge(NodeId(0), n));
        }
    }

    #[test]
    fn caps_at_m() {
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 3 };
        let p = KhopRandom::new(2, tag.num_nodes());
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(p.select_neighbors(&ctx, NodeId(0), &mut rng).len(), 3);
    }

    #[test]
    fn two_hop_crosses_the_bridge() {
        let tag = two_cliques();
        let labels = LabelStore::empty(tag.num_nodes());
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 12 };
        let p = KhopRandom::new(2, tag.num_nodes());
        let mut rng = StdRng::seed_from_u64(3);
        let picked = p.select_neighbors(&ctx, NodeId(5), &mut rng);
        // Node 5 reaches its clique plus node 6 (1-hop) plus 6's clique (2-hop).
        assert!(picked.iter().any(|n| n.0 >= 7), "bridge not crossed: {picked:?}");
    }

    #[test]
    fn labeled_neighbors_always_chosen_first() {
        let tag = two_cliques();
        let mut labels = LabelStore::empty(tag.num_nodes());
        labels.add_pseudo(NodeId(2), ClassId(0));
        labels.add_pseudo(NodeId(4), ClassId(0));
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 2 };
        let p = KhopRandom::new(1, tag.num_nodes());
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let picked = p.select_neighbors(&ctx, NodeId(0), &mut rng);
            let mut ids: Vec<u32> = picked.iter().map(|n| n.0).collect();
            ids.sort();
            assert_eq!(ids, vec![2, 4], "labeled preference violated at seed {seed}");
        }
    }

    #[test]
    fn isolated_node_gets_no_neighbors() {
        use mqo_graph::{GraphBuilder, NodeText, Tag};
        let tag = Tag::new(
            "iso",
            GraphBuilder::new(2).build(),
            vec![NodeText::default(), NodeText::default()],
            vec![ClassId(0), ClassId(0)],
            vec!["x".into()],
        )
        .unwrap();
        let labels = LabelStore::empty(2);
        let ctx = SelectCtx { tag: &tag, labels: &labels, max_neighbors: 4 };
        let p = KhopRandom::new(2, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(p.select_neighbors(&ctx, NodeId(0), &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_hop_rejected() {
        KhopRandom::new(0, 5);
    }
}
