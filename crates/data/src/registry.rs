//! The five calibrated dataset specs (Table II) and a registry API.

use crate::generate::{generate, DatasetBundle};
use crate::spec::DatasetSpec;
use mqo_graph::SplitConfig;
use mqo_text::DocumentSpec;

/// The paper's five evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Cora citation network (2,708 nodes, 7 classes).
    Cora,
    /// Citeseer citation network (3,186 nodes, 6 classes).
    Citeseer,
    /// Pubmed citation network (19,717 nodes, 3 classes).
    Pubmed,
    /// Ogbn-Arxiv citation network (169,343 nodes, 40 classes).
    OgbnArxiv,
    /// Ogbn-Products co-purchase network (2,449,029 nodes, 47 classes).
    OgbnProducts,
}

impl DatasetId {
    /// All five, in Table II order.
    pub const ALL: [DatasetId; 5] = [
        DatasetId::Cora,
        DatasetId::Citeseer,
        DatasetId::Pubmed,
        DatasetId::OgbnArxiv,
        DatasetId::OgbnProducts,
    ];

    /// The three small (Planetoid-style) datasets used for the
    /// query-boosting classification experiments.
    pub const SMALL: [DatasetId; 3] = [DatasetId::Cora, DatasetId::Citeseer, DatasetId::Pubmed];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Cora => "cora",
            DatasetId::Citeseer => "citeseer",
            DatasetId::Pubmed => "pubmed",
            DatasetId::OgbnArxiv => "ogbn-arxiv",
            DatasetId::OgbnProducts => "ogbn-products",
        }
    }

    /// Default generation scale: paper-size for the small graphs, reduced
    /// for the OGB graphs (experiments use 1,000 queries regardless; the
    /// analytic tables use full-scale counts from the spec).
    pub fn default_scale(self) -> f64 {
        match self {
            DatasetId::Cora | DatasetId::Citeseer | DatasetId::Pubmed => 1.0,
            DatasetId::OgbnArxiv => 0.2,
            DatasetId::OgbnProducts => 0.02,
        }
    }

    /// This dataset's spec.
    pub fn spec(self) -> DatasetSpec {
        match self {
            DatasetId::Cora => cora(),
            DatasetId::Citeseer => citeseer(),
            DatasetId::Pubmed => pubmed(),
            DatasetId::OgbnArxiv => ogbn_arxiv(),
            DatasetId::OgbnProducts => ogbn_products(),
        }
    }
}

/// Generate a dataset by id. `scale` of `None` uses the default.
pub fn dataset(id: DatasetId, scale: Option<f64>, seed: u64) -> DatasetBundle {
    let spec = id.spec();
    generate(&spec, scale.unwrap_or_else(|| id.default_scale()), seed)
}

/// All five specs in Table II order.
pub fn all_specs() -> Vec<DatasetSpec> {
    DatasetId::ALL.iter().map(|id| id.spec()).collect()
}

/// The paper's `M`, the per-prompt neighbor cap, for the dataset named
/// `dataset`: 10 on ogbn-products, 4 on every other dataset.
pub fn paper_max_neighbors(dataset: &str) -> usize {
    if dataset == DatasetId::OgbnProducts.name() {
        10
    } else {
        4
    }
}

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Cora: 7 ML-subfield classes, high homophily, zero-shot ≈ 69%.
fn cora() -> DatasetSpec {
    DatasetSpec {
        name: "cora",
        nodes: 2708,
        edges: 5429,
        class_names: names(&[
            "Case Based",
            "Genetic Algorithms",
            "Neural Networks",
            "Probabilistic Methods",
            "Reinforcement Learning",
            "Rule Learning",
            "Theory",
        ]),
        homophily: 0.81,
        saturated_frac: 0.68,
        adversarial_frac: 0.10,
        alpha_high: (0.25, 0.70),
        alpha_low: (0.0, 0.10),
        doc: DocumentSpec { title_words: 9, body_words: 90, cross_noise: 0.25, zipf_s: 1.05 },
        degree_tail: 2.6,
        closure_frac: 0.25,
        lexicon_per_class: 400,
        lexicon_shared: 4000,
        lexicon_markers: 4000,
        link_marker_prob: 0.45,
        split: SplitConfig::PerClass { per_class: 20, num_queries: 1000 },
    }
}

/// Citeseer: 6 CS-area classes, the hardest of the small graphs
/// (zero-shot ≈ 60%).
fn citeseer() -> DatasetSpec {
    DatasetSpec {
        name: "citeseer",
        nodes: 3186,
        edges: 4277,
        class_names: names(&[
            "Agents",
            "Artificial Intelligence",
            "Database",
            "Information Retrieval",
            "Machine Learning",
            "Human Computer Interaction",
        ]),
        homophily: 0.74,
        saturated_frac: 0.62,
        adversarial_frac: 0.08,
        alpha_high: (0.22, 0.65),
        alpha_low: (0.0, 0.10),
        doc: DocumentSpec { title_words: 15, body_words: 85, cross_noise: 0.28, zipf_s: 1.05 },
        degree_tail: 2.8,
        closure_frac: 0.22,
        lexicon_per_class: 400,
        lexicon_shared: 4000,
        lexicon_markers: 4000,
        link_marker_prob: 0.9,
        split: SplitConfig::PerClass { per_class: 20, num_queries: 1000 },
    }
}

/// Pubmed: 3 diabetes classes, very high zero-shot (≈ 90%) — the dataset
/// where neighbor text *hurts* (Fig. 7 endpoint inversion).
fn pubmed() -> DatasetSpec {
    DatasetSpec {
        name: "pubmed",
        nodes: 19_717,
        edges: 44_338,
        class_names: names(&[
            "Diabetes Mellitus Experimental",
            "Diabetes Mellitus Type 1",
            "Diabetes Mellitus Type 2",
        ]),
        homophily: 0.80,
        saturated_frac: 0.97,
        adversarial_frac: 0.03,
        alpha_high: (0.32, 0.83),
        alpha_low: (0.0, 0.10),
        doc: DocumentSpec { title_words: 12, body_words: 150, cross_noise: 0.36, zipf_s: 1.05 },
        degree_tail: 2.5,
        closure_frac: 0.20,
        lexicon_per_class: 400,
        lexicon_shared: 4000,
        lexicon_markers: 4000,
        link_marker_prob: 0.9,
        split: SplitConfig::PerClass { per_class: 20, num_queries: 1000 },
    }
}

/// Ogbn-Arxiv: 40 arXiv CS categories, moderate homophily, zero-shot ≈ 73%.
fn ogbn_arxiv() -> DatasetSpec {
    DatasetSpec {
        name: "ogbn-arxiv",
        nodes: 169_343,
        edges: 1_166_243,
        class_names: names(&[
            "cs.AI", "cs.AR", "cs.CC", "cs.CE", "cs.CG", "cs.CL", "cs.CR", "cs.CV", "cs.CY",
            "cs.DB", "cs.DC", "cs.DL", "cs.DM", "cs.DS", "cs.ET", "cs.FL", "cs.GL", "cs.GR",
            "cs.GT", "cs.HC", "cs.IR", "cs.IT", "cs.LG", "cs.LO", "cs.MA", "cs.MM", "cs.MS",
            "cs.NA", "cs.NE", "cs.NI", "cs.OH", "cs.OS", "cs.PF", "cs.PL", "cs.RO", "cs.SC",
            "cs.SD", "cs.SE", "cs.SI", "cs.SY",
        ]),
        homophily: 0.66,
        saturated_frac: 0.75,
        adversarial_frac: 0.24,
        alpha_high: (0.25, 0.70),
        alpha_low: (0.0, 0.10),
        doc: DocumentSpec { title_words: 8, body_words: 105, cross_noise: 0.30, zipf_s: 1.05 },
        degree_tail: 2.0,
        closure_frac: 0.25,
        lexicon_per_class: 300,
        lexicon_shared: 8000,
        lexicon_markers: 8000,
        link_marker_prob: 0.5,
        split: SplitConfig::Fraction { labeled_fraction: 0.54, num_queries: 1000 },
    }
}

/// Ogbn-Products: 47 Amazon categories, heavy degree skew, zero-shot ≈ 79%.
fn ogbn_products() -> DatasetSpec {
    DatasetSpec {
        name: "ogbn-products",
        nodes: 2_449_029,
        edges: 61_859_140,
        class_names: names(&[
            "Home & Kitchen",
            "Health & Personal Care",
            "Beauty",
            "Sports & Outdoors",
            "Books",
            "Patio Lawn & Garden",
            "Toys & Games",
            "CDs & Vinyl",
            "Cell Phones & Accessories",
            "Grocery & Gourmet Food",
            "Arts Crafts & Sewing",
            "Clothing Shoes & Jewelry",
            "Electronics",
            "Movies & TV",
            "Software",
            "Video Games",
            "Automotive",
            "Pet Supplies",
            "Office Products",
            "Industrial & Scientific",
            "Musical Instruments",
            "Tools & Home Improvement",
            "Magazine Subscriptions",
            "Baby Products",
            "Appliances",
            "Kitchen & Dining",
            "Collectibles & Fine Art",
            "All Beauty",
            "Luxury Beauty",
            "Amazon Fashion",
            "Computers",
            "All Electronics",
            "Purchase Circles",
            "MP3 Players & Accessories",
            "Gift Cards",
            "Office & School Supplies",
            "Home Improvement",
            "Camera & Photo",
            "GPS & Navigation",
            "Digital Music",
            "Car Electronics",
            "Baby",
            "Kindle Store",
            "Buy a Kindle",
            "Furniture & Decor",
            "Everything Else",
            "Oral Care",
        ]),
        homophily: 0.81,
        saturated_frac: 0.765,
        adversarial_frac: 0.18,
        alpha_high: (0.25, 0.70),
        alpha_low: (0.0, 0.10),
        doc: DocumentSpec { title_words: 8, body_words: 60, cross_noise: 0.22, zipf_s: 1.05 },
        degree_tail: 1.8,
        closure_frac: 0.30,
        lexicon_per_class: 300,
        lexicon_shared: 8000,
        lexicon_markers: 8000,
        link_marker_prob: 0.5,
        split: SplitConfig::Fraction { labeled_fraction: 0.08, num_queries: 1000 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_statistics_match_the_paper() {
        let specs = all_specs();
        let expected: [(&str, usize, u64, usize); 5] = [
            ("cora", 2708, 5429, 7),
            ("citeseer", 3186, 4277, 6),
            ("pubmed", 19_717, 44_338, 3),
            ("ogbn-arxiv", 169_343, 1_166_243, 40),
            ("ogbn-products", 2_449_029, 61_859_140, 47),
        ];
        for (spec, (name, nodes, edges, classes)) in specs.iter().zip(expected) {
            assert_eq!(spec.name, name);
            assert_eq!(spec.nodes, nodes);
            assert_eq!(spec.edges, edges);
            assert_eq!(spec.num_classes(), classes);
        }
    }

    #[test]
    fn class_names_are_unique_per_dataset() {
        for spec in all_specs() {
            let mut names: Vec<&String> = spec.class_names.iter().collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), spec.num_classes(), "{}", spec.name);
        }
    }

    #[test]
    fn saturation_matches_table5_proportions_approximately() {
        // The saturated_frac knob is a *generator input* calibrated so the
        // simulated zero-shot accuracy (measured in integration tests)
        // lands on Table V's row; it should sit near those values.
        let table5 = [0.690, 0.601, 0.900, 0.731, 0.794];
        for (spec, &target) in all_specs().iter().zip(&table5) {
            assert!(
                (spec.saturated_frac - target).abs() < 0.12,
                "{}: knob {} far from Table V {}",
                spec.name,
                spec.saturated_frac,
                target
            );
        }
    }

    #[test]
    fn generates_a_small_cora_quickly() {
        let b = dataset(DatasetId::Cora, Some(0.25), 7);
        assert_eq!(b.tag.name(), "cora");
        assert_eq!(b.tag.num_classes(), 7);
        assert!(b.tag.num_nodes() >= 600);
    }

    #[test]
    fn default_scales_are_sane() {
        assert_eq!(DatasetId::Cora.default_scale(), 1.0);
        assert!(DatasetId::OgbnProducts.default_scale() < 0.1);
    }
}
