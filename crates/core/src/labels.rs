//! The evolving label store: ground truth on `V_L` plus pseudo-labels.
//!
//! Query boosting (Algorithm 2, step 3) grows the labeled set with LLM
//! responses: "Add `v_i` to `V_L`, add `ŷ_i` to `Y_L`". The store keeps
//! ground-truth and pseudo entries distinguishable so the utilization
//! analysis (Fig. 8) can count how often pseudo-labels actually enrich
//! later prompts.

use mqo_graph::{ClassId, LabeledSplit, NodeId, Tag};
use std::sync::Arc;

/// Where a stored label came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSource {
    /// Ground-truth label of a `V_L` node.
    GroundTruth,
    /// Pseudo-label from an earlier LLM query.
    Pseudo,
}

/// Nodes per copy-on-write chunk of a [`LabelStore`].
const CHUNK: usize = 64;

/// One node's entry: the label, its provenance, and whether a pseudo
/// label arrived over the cross-shard exchange, in four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    class: ClassId,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Unlabeled,
    GroundTruth,
    Pseudo,
    /// A pseudo-label ingested from another shard.
    Remote,
}

impl Slot {
    const EMPTY: Slot = Slot { class: ClassId(0), kind: Kind::Unlabeled };

    fn label(self) -> Option<(ClassId, LabelSource)> {
        match self.kind {
            Kind::Unlabeled => None,
            Kind::GroundTruth => Some((self.class, LabelSource::GroundTruth)),
            Kind::Pseudo | Kind::Remote => Some((self.class, LabelSource::Pseudo)),
        }
    }
}

/// Per-node label knowledge at a point in the execution.
///
/// Entries live in fixed 64-node chunks behind `Arc`s, so a clone (the
/// scheduler hands one snapshot to every in-flight query) bumps one
/// refcount per chunk, and a write after a clone copies only the chunk it
/// touches.
#[derive(Debug, Clone)]
pub struct LabelStore {
    chunks: Vec<Arc<[Slot; CHUNK]>>,
    /// Node count: the last chunk may hold slots past it.
    num_nodes: usize,
    num_ground_truth: usize,
    num_pseudo: usize,
    /// Pseudo entries that arrived from another shard over the label
    /// exchange rather than from a locally executed query. Tracked apart
    /// from [`LabelSource`] so every existing `Pseudo` consumer (prompt
    /// cues, utilization analysis) treats remote cues identically, while
    /// the sharding layer can still attribute γ readiness to the
    /// exchange.
    num_remote: usize,
}

impl LabelStore {
    /// Initialize from a split: only `V_L` nodes carry labels.
    pub fn from_split(tag: &Tag, split: &LabeledSplit) -> Self {
        let mut store = Self::empty(tag.num_nodes());
        for &v in split.labeled() {
            *store.slot_mut(v) = Slot { class: tag.label(v), kind: Kind::GroundTruth };
        }
        store.num_ground_truth = split.num_labeled();
        store
    }

    /// An empty store (no node labeled) for `n` nodes.
    pub fn empty(n: usize) -> Self {
        let chunk = Arc::new([Slot::EMPTY; CHUNK]);
        LabelStore {
            chunks: vec![chunk; n.div_ceil(CHUNK)],
            num_nodes: n,
            num_ground_truth: 0,
            num_pseudo: 0,
            num_remote: 0,
        }
    }

    #[inline]
    fn slot(&self, v: NodeId) -> Slot {
        assert!(v.index() < self.num_nodes, "node {} out of range", v.0);
        self.chunks[v.index() / CHUNK][v.index() % CHUNK]
    }

    /// `v`'s entry, copying its chunk first if a snapshot shares it.
    fn slot_mut(&mut self, v: NodeId) -> &mut Slot {
        assert!(v.index() < self.num_nodes, "node {} out of range", v.0);
        &mut Arc::make_mut(&mut self.chunks[v.index() / CHUNK])[v.index() % CHUNK]
    }

    /// Current label of `v`, if known.
    #[inline]
    pub fn get(&self, v: NodeId) -> Option<ClassId> {
        self.slot(v).label().map(|(c, _)| c)
    }

    /// Label plus provenance.
    #[inline]
    pub fn get_with_source(&self, v: NodeId) -> Option<(ClassId, LabelSource)> {
        self.slot(v).label()
    }

    /// Whether `v` currently has any label.
    #[inline]
    pub fn is_labeled(&self, v: NodeId) -> bool {
        self.slot(v).kind != Kind::Unlabeled
    }

    /// Whether `v` carries a pseudo-label.
    #[inline]
    pub fn is_pseudo(&self, v: NodeId) -> bool {
        matches!(self.slot(v).kind, Kind::Pseudo | Kind::Remote)
    }

    /// Record a pseudo-label for `v`. Pseudo-labels never overwrite ground
    /// truth; re-labeling a pseudo node updates it in place.
    pub fn add_pseudo(&mut self, v: NodeId, label: ClassId) {
        let pseudo = Slot { class: label, kind: Kind::Pseudo };
        match self.slot(v).kind {
            Kind::GroundTruth => {}
            Kind::Pseudo => *self.slot_mut(v) = pseudo,
            Kind::Remote => {
                // A locally executed query supersedes an exchanged label.
                *self.slot_mut(v) = pseudo;
                self.num_remote -= 1;
            }
            Kind::Unlabeled => {
                *self.slot_mut(v) = pseudo;
                self.num_pseudo += 1;
            }
        }
    }

    /// Ingest a pseudo-label pushed from another shard over the label
    /// exchange. Same precedence as [`LabelStore::add_pseudo`] — ground
    /// truth is never overwritten — but the entry is tagged remote, so
    /// the serving layer can report how many cues the γ₁/γ₂ readiness
    /// rule owed to the exchange rather than to local execution. A local
    /// pseudo-label, if one exists, wins over the snapshot (the local
    /// shard executed the query itself; the exchanged copy is stale by
    /// definition). Returns whether the label took effect (fresh insert
    /// or remote-over-remote update).
    pub fn ingest_remote(&mut self, v: NodeId, label: ClassId) -> bool {
        let remote = Slot { class: label, kind: Kind::Remote };
        match self.slot(v).kind {
            Kind::Unlabeled => {
                *self.slot_mut(v) = remote;
                self.num_pseudo += 1;
                self.num_remote += 1;
                true
            }
            // Remote-over-remote: later snapshot wins (same node may be
            // re-labeled upstream, mirroring pseudo relabel-in-place).
            Kind::Remote => {
                *self.slot_mut(v) = remote;
                true
            }
            Kind::GroundTruth | Kind::Pseudo => false,
        }
    }

    /// Whether `v`'s label arrived over the cross-shard exchange.
    #[inline]
    pub fn is_remote(&self, v: NodeId) -> bool {
        self.slot(v).kind == Kind::Remote
    }

    /// Number of labels ingested from other shards.
    pub fn num_remote(&self) -> usize {
        self.num_remote
    }

    /// Number of ground-truth labels.
    pub fn num_ground_truth(&self) -> usize {
        self.num_ground_truth
    }

    /// Number of pseudo-labels.
    pub fn num_pseudo(&self) -> usize {
        self.num_pseudo
    }

    /// Total labeled nodes.
    pub fn num_labeled(&self) -> usize {
        self.num_ground_truth + self.num_pseudo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_graph::{GraphBuilder, NodeText, SplitConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (Tag, LabeledSplit) {
        fixture_of(20, 0)
    }

    /// An edgeless 2-class tag of `n` nodes, 3 labeled per class.
    fn fixture_of(n: usize, seed: u64) -> (Tag, LabeledSplit) {
        let g = GraphBuilder::new(n).build();
        let texts = (0..n).map(|i| NodeText::new(format!("t{i}"), "")).collect();
        let labels = (0..n).map(|i| ClassId::from(i % 2)).collect();
        let tag = Tag::new("t", g, texts, labels, vec!["a".into(), "b".into()]).unwrap();
        let split = LabeledSplit::generate(
            &tag,
            SplitConfig::PerClass { per_class: 3, num_queries: 10 },
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap();
        (tag, split)
    }

    /// The reference model of one node's entry.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Model {
        Unlabeled,
        Truth(ClassId),
        Pseudo(ClassId),
        Remote(ClassId),
    }

    /// Assert `store` reads exactly `model`, node by node and in its counts.
    fn assert_reads(store: &LabelStore, model: &[Model]) {
        for (i, &m) in model.iter().enumerate() {
            let v = NodeId(i as u32);
            let expected = match m {
                Model::Unlabeled => None,
                Model::Truth(c) => Some((c, LabelSource::GroundTruth)),
                Model::Pseudo(c) | Model::Remote(c) => Some((c, LabelSource::Pseudo)),
            };
            assert_eq!(store.get_with_source(v), expected, "node {i}");
            assert_eq!(store.get(v), expected.map(|(c, _)| c), "node {i}");
            assert_eq!(store.is_labeled(v), m != Model::Unlabeled, "node {i}");
            assert_eq!(store.is_pseudo(v), matches!(m, Model::Pseudo(_) | Model::Remote(_)));
            assert_eq!(store.is_remote(v), matches!(m, Model::Remote(_)), "node {i}");
        }
        let count = |f: fn(&Model) -> bool| model.iter().filter(|m| f(m)).count();
        let pseudo = count(|m| matches!(m, Model::Pseudo(_) | Model::Remote(_)));
        let truth = count(|m| matches!(m, Model::Truth(_)));
        assert_eq!(store.num_pseudo(), pseudo);
        assert_eq!(store.num_remote(), count(|m| matches!(m, Model::Remote(_))));
        assert_eq!(store.num_ground_truth(), truth);
        assert_eq!(store.num_labeled(), truth + pseudo);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Copy-on-write snapshots are isolated: across random
        /// `add_pseudo`/`ingest_remote` sequences, every clone reads
        /// exactly the reference model's state at the moment it was
        /// taken, however the original (or another clone) is written
        /// afterwards.
        #[test]
        fn clones_are_isolated_snapshots(
            seed in 0u64..1_000,
            n in 20usize..300,
            ops in prop::collection::vec((0u8..3, 0usize..300, 0u16..2), 1..120),
        ) {
            let (tag, split) = fixture_of(n, seed);
            let mut store = LabelStore::from_split(&tag, &split);
            let mut model = vec![Model::Unlabeled; n];
            for &v in split.labeled() {
                model[v.index()] = Model::Truth(tag.label(v));
            }
            let mut snapshots = vec![(store.clone(), model.clone())];
            for (op, node, class) in ops {
                let (v, c) = (NodeId((node % n) as u32), ClassId(class));
                let m = &mut model[v.index()];
                match op {
                    0 => {
                        store.add_pseudo(v, c);
                        if !matches!(m, Model::Truth(_)) {
                            *m = Model::Pseudo(c);
                        }
                    }
                    1 => {
                        let took = matches!(m, Model::Unlabeled | Model::Remote(_));
                        prop_assert_eq!(store.ingest_remote(v, c), took);
                        if took {
                            *m = Model::Remote(c);
                        }
                    }
                    _ => snapshots.push((store.clone(), model.clone())),
                }
            }
            // Writing through a snapshot leaves the store and the other
            // snapshots alone.
            if let Some((first, _)) = snapshots.first() {
                let mut scribble = first.clone();
                for i in 0..n {
                    scribble.add_pseudo(NodeId(i as u32), ClassId(1));
                }
            }
            assert_reads(&store, &model);
            for (snapshot, at_clone) in &snapshots {
                assert_reads(snapshot, at_clone);
            }
        }
    }

    #[test]
    fn initializes_from_split() {
        let (tag, split) = fixture();
        let store = LabelStore::from_split(&tag, &split);
        assert_eq!(store.num_ground_truth(), 6);
        assert_eq!(store.num_pseudo(), 0);
        for &v in split.labeled() {
            assert_eq!(store.get(v), Some(tag.label(v)));
            assert!(!store.is_pseudo(v));
        }
        for &v in split.queries() {
            assert_eq!(store.get(v), None);
        }
    }

    #[test]
    fn pseudo_labels_accumulate_without_touching_ground_truth() {
        let (tag, split) = fixture();
        let mut store = LabelStore::from_split(&tag, &split);
        let q = split.queries()[0];
        store.add_pseudo(q, ClassId(1));
        assert_eq!(store.get(q), Some(ClassId(1)));
        assert!(store.is_pseudo(q));
        assert_eq!(store.num_pseudo(), 1);
        // Ground truth survives attempted overwrite.
        let l = split.labeled()[0];
        let truth = store.get(l).unwrap();
        store.add_pseudo(l, ClassId(1 - truth.0));
        assert_eq!(store.get(l), Some(truth));
        assert_eq!(store.num_pseudo(), 1);
    }

    #[test]
    fn pseudo_relabel_updates_in_place() {
        let (tag, split) = fixture();
        let mut store = LabelStore::from_split(&tag, &split);
        let q = split.queries()[0];
        store.add_pseudo(q, ClassId(0));
        store.add_pseudo(q, ClassId(1));
        assert_eq!(store.get(q), Some(ClassId(1)));
        assert_eq!(store.num_pseudo(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_node_past_the_end_is_rejected_even_inside_the_last_chunk() {
        LabelStore::empty(5).get(NodeId(6));
    }

    #[test]
    fn empty_store_has_no_labels() {
        let store = LabelStore::empty(5);
        assert_eq!(store.num_labeled(), 0);
        assert!(!store.is_labeled(NodeId(3)));
    }

    #[test]
    fn remote_ingest_tags_provenance_and_respects_precedence() {
        let (tag, split) = fixture();
        let mut store = LabelStore::from_split(&tag, &split);
        let q = split.queries()[0];
        // Remote label lands on an unlabeled node: counted, tagged.
        store.ingest_remote(q, ClassId(1));
        assert_eq!(store.get(q), Some(ClassId(1)));
        assert!(store.is_pseudo(q) && store.is_remote(q));
        assert_eq!((store.num_pseudo(), store.num_remote()), (1, 1));
        // Remote-over-remote updates in place.
        store.ingest_remote(q, ClassId(0));
        assert_eq!(store.get(q), Some(ClassId(0)));
        assert_eq!(store.num_remote(), 1);
        // Ground truth is never overwritten by an exchanged label.
        let l = split.labeled()[0];
        let truth = store.get(l).unwrap();
        store.ingest_remote(l, ClassId(1 - truth.0));
        assert_eq!(store.get(l), Some(truth));
        assert!(!store.is_remote(l));
        // A local pseudo-label supersedes the remote snapshot.
        store.add_pseudo(q, ClassId(1));
        assert_eq!(store.get(q), Some(ClassId(1)));
        assert!(!store.is_remote(q));
        assert_eq!(store.num_remote(), 0);
        // And a remote arriving after a local pseudo does not clobber it.
        let q2 = split.queries()[1];
        store.add_pseudo(q2, ClassId(0));
        store.ingest_remote(q2, ClassId(1));
        assert_eq!(store.get(q2), Some(ClassId(0)));
        assert!(!store.is_remote(q2));
    }
}
