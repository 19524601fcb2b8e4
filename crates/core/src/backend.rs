//! The phase-2 inference backend registry.
//!
//! The paper only ever validated one inference family — modularity-style
//! graph clustering over the Eq. (2) metric. [`Backend`] names every
//! "snapshot graph → host partition" step the pipeline can run, so
//! independent families can be cross-validated on the same measurement
//! campaign:
//!
//! * [`Backend::Clustering`] runs one of the four historical
//!   [`ClusteringAlgorithm`]s through
//!   [`ClusteringAlgorithm::cluster_into`] — the same per-prefix seed
//!   derivation and [`LouvainScratch`] reuse the pipeline has always used
//!   (pinned by `crates/core/tests/backend_golden.rs`).
//! * [`Backend::Additive`] is Ni & Tatikonda-style additive-metrics
//!   tomography ([`btt_cluster::additive`]): recursive grouping over the
//!   log-throughput path metric, cut at the largest log-domain gap. It is
//!   seedless — agreement between the two families on a scenario is
//!   evidence the recovered structure is real, disagreement localizes
//!   which assumptions (modularity resolution vs. metric additivity) fail.
//!
//! [`Backend`] is the compact, copyable selector threaded through session
//! builders, sweep specs, the serve job schema, and artifact writers;
//! [`Backend::from_name`] / [`Backend::name`] are the one CLI/JSON
//! spelling registry. For clustering variants [`Backend::name`]
//! deliberately returns the algorithm's own name (`"louvain"`, …) so
//! artifact file stems and the report `algorithm` field stay
//! byte-for-byte stable.

use crate::pipeline::ClusteringAlgorithm;
use btt_cluster::additive::additive_partition;
use btt_cluster::graph::WeightedGraph;
use btt_cluster::louvain::LouvainScratch;
use btt_cluster::partition::Partition;

/// Compact selector for an inference backend — the value threaded through
/// session builders, sweep specs, serve jobs, and artifact writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One of the four historical clustering algorithms.
    Clustering(ClusteringAlgorithm),
    /// Additive-metrics tomography ([`additive_partition`]): seedless and
    /// scratch-free.
    Additive,
}

impl From<ClusteringAlgorithm> for Backend {
    fn from(a: ClusteringAlgorithm) -> Backend {
        Backend::Clustering(a)
    }
}

impl Default for Backend {
    /// The paper's default phase-2 path: Louvain clustering.
    fn default() -> Backend {
        Backend::Clustering(ClusteringAlgorithm::Louvain)
    }
}

impl Backend {
    /// All backends, in a stable sweep order: the four clustering
    /// algorithms (matching [`ClusteringAlgorithm::ALL`]), then additive.
    pub const ALL: [Backend; 5] = [
        Backend::Clustering(ClusteringAlgorithm::Louvain),
        Backend::Clustering(ClusteringAlgorithm::Infomap),
        Backend::Clustering(ClusteringAlgorithm::LabelPropagation),
        Backend::Clustering(ClusteringAlgorithm::HierarchicalLouvain),
        Backend::Additive,
    ];

    /// Parses a backend name, case-insensitively: every canonical
    /// [`Backend::name`], the shorthands `"im"`, `"lp"`, `"hlouvain"` and
    /// `"add"`, and the family name `"clustering"` (= the paper's Louvain).
    pub fn from_name(name: &str) -> Option<Backend> {
        let clustering = |a| Some(Backend::Clustering(a));
        match name.to_ascii_lowercase().as_str() {
            "louvain" | "clustering" => clustering(ClusteringAlgorithm::Louvain),
            "infomap" | "im" => clustering(ClusteringAlgorithm::Infomap),
            "label-propagation" | "lp" => clustering(ClusteringAlgorithm::LabelPropagation),
            "hierarchical-louvain" | "hlouvain" => {
                clustering(ClusteringAlgorithm::HierarchicalLouvain)
            }
            "additive" | "add" => Some(Backend::Additive),
            _ => None,
        }
    }

    /// Every name [`Backend::from_name`] accepts, for error messages
    /// ("valid backends: …").
    pub fn name_list() -> &'static str {
        "louvain (clustering), infomap (im), label-propagation (lp), \
         hierarchical-louvain (hlouvain), additive (add)"
    }

    /// Canonical name: the algorithm's own name for clustering variants
    /// (keeping historical artifact spellings), `"additive"` otherwise.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Clustering(a) => a.name(),
            Backend::Additive => "additive",
        }
    }

    /// Whether the backend consumes the seed at all. Seedless backends are
    /// deterministic per graph; reporting layers use this to annotate
    /// cost/diagnostic output (a seed sweep over a seedless backend is
    /// wasted work).
    pub fn uses_seed(self) -> bool {
        matches!(self, Backend::Clustering(_))
    }

    /// Infers the host partition from one snapshot measurement graph, with
    /// fresh scratch memory.
    ///
    /// The determinism contract every backend upholds — it is what keeps
    /// reports byte-identical across thread counts, drive modes, and the
    /// batch/stream control-flow split:
    ///
    /// * the output is a pure function of `(g, seed)`; the scratch memory
    ///   of [`Backend::infer_into`] never influences it;
    /// * no global or ambient randomness: random choices derive from
    ///   `seed` alone;
    /// * no state keyed on call order: the same arguments always yield the
    ///   same partition.
    pub fn infer(self, g: &WeightedGraph, seed: u64) -> Partition {
        self.infer_into(g, seed, &mut LouvainScratch::default())
    }

    /// [`Backend::infer`] reusing caller-provided Louvain working memory —
    /// the long-lived-session path. Output is identical to
    /// [`Backend::infer`] for any scratch state; backends that do not run
    /// Louvain ignore it.
    pub fn infer_into(
        self,
        g: &WeightedGraph,
        seed: u64,
        scratch: &mut LouvainScratch,
    ) -> Partition {
        match self {
            Backend::Clustering(a) => a.cluster_into(g, seed, scratch),
            Backend::Additive => additive_partition(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btt_cluster::generators::planted_partition;

    #[test]
    fn clustering_backend_matches_the_direct_algorithm_call() {
        let (g, _) = planted_partition(3, 8, 9.0, 0.4, 11);
        for alg in ClusteringAlgorithm::ALL {
            let direct = alg.cluster(&g, 42);
            let via_enum = Backend::Clustering(alg).infer(&g, 42);
            assert_eq!(direct, via_enum, "{}", alg.name());
        }
    }

    #[test]
    fn names_round_trip_case_insensitively() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert_eq!(Backend::from_name(&b.name().to_ascii_uppercase()), Some(b));
        }
        assert_eq!(
            Backend::from_name("Clustering"),
            Some(Backend::Clustering(ClusteringAlgorithm::Louvain))
        );
        assert_eq!(Backend::from_name("ADD"), Some(Backend::Additive));
        assert_eq!(
            Backend::from_name("HLouvain"),
            Some(Backend::Clustering(ClusteringAlgorithm::HierarchicalLouvain))
        );
        assert_eq!(Backend::from_name("nope"), None);
    }

    #[test]
    fn infomap_parses_as_im() {
        let infomap = Some(Backend::Clustering(ClusteringAlgorithm::Infomap));
        assert_eq!(Backend::from_name("im"), infomap);
        assert_eq!(Backend::from_name("IM"), infomap);
        assert_eq!(Backend::from_name("imp"), None);
        // Every advertised shorthand is listed and parses.
        for token in ["im", "lp", "hlouvain", "clustering", "add"] {
            assert!(Backend::name_list().contains(token), "{token}");
            assert!(Backend::from_name(token).is_some(), "{token}");
        }
    }

    #[test]
    fn additive_backend_ignores_seed_and_scratch() {
        let (g, _) = planted_partition(4, 6, 10.0, 0.5, 3);
        assert!(!Backend::Additive.uses_seed());
        let a = Backend::Additive.infer(&g, 1);
        let b = Backend::Additive.infer(&g, 0xDEAD_BEEF);
        assert_eq!(a, b);
    }
}
