//! A first-class handle on the four dominating-tree constructions.
//!
//! The `RemSpan` drivers, the distributed protocol and the dynamics layer all
//! need to name "which tree algorithm" at runtime and build one tree per node
//! through a pooled [`DomScratch`].  [`TreeAlgo`] is that handle: a `Copy`
//! enum with the paper's parameters, the shared knowledge-radius and
//! round-count formulas of Algorithm 3, and both allocating and pooled build
//! entry points.

use crate::greedy::dom_tree_greedy_with_scratch;
use crate::kgreedy::dom_tree_k_greedy_with_scratch;
use crate::kmis::dom_tree_k_mis_with_scratch;
use crate::mis::dom_tree_mis_with_scratch;
use crate::scratch::DomScratch;
use crate::tree::DominatingTree;
use rspan_graph::{Adjacency, Node};

/// Which dominating-tree construction to run per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeAlgo {
    /// Algorithm 1, `DomTreeGdy_{r,β}`.
    Greedy {
        /// Dominating-tree radius `r`.
        r: u32,
        /// Dominating-tree slack `β`.
        beta: u32,
    },
    /// Algorithm 2, `DomTreeMIS_{r,1}`.
    Mis {
        /// Dominating-tree radius `r`.
        r: u32,
    },
    /// Algorithm 4, `DomTreeGdy_{2,0,k}`.
    KGreedy {
        /// Coverage / connectivity parameter `k`.
        k: usize,
    },
    /// Algorithm 5, `DomTreeMIS_{2,1,k}`.
    KMis {
        /// Coverage / connectivity parameter `k`.
        k: usize,
    },
}

impl TreeAlgo {
    /// The knowledge radius `R = r − 1 + β` Algorithm 3 floods to for this
    /// construction.
    pub fn knowledge_radius(&self) -> u32 {
        match *self {
            TreeAlgo::Greedy { r, beta } => r - 1 + beta,
            TreeAlgo::Mis { r } => r,      // r - 1 + β with β = 1
            TreeAlgo::KGreedy { .. } => 1, // r = 2, β = 0
            TreeAlgo::KMis { .. } => 2,    // r = 2, β = 1
        }
    }

    /// Rounds Algorithm 3 takes under the synchronous schedule:
    /// `2R + 1 = 2r − 1 + 2β`, with `R` the
    /// [knowledge radius](TreeAlgo::knowledge_radius).
    pub fn expected_rounds(&self) -> u32 {
        2 * self.knowledge_radius() + 1
    }

    /// Builds the tree for `root` through pooled scratch state; the result
    /// borrows from `scratch` until the next build.
    pub fn build_with_scratch<'s, A>(
        &self,
        graph: &A,
        root: Node,
        scratch: &'s mut DomScratch,
    ) -> &'s DominatingTree
    where
        A: Adjacency + ?Sized,
    {
        match *self {
            TreeAlgo::Greedy { r, beta } => {
                dom_tree_greedy_with_scratch(graph, root, r, beta, scratch)
            }
            TreeAlgo::Mis { r } => dom_tree_mis_with_scratch(graph, root, r, scratch).0,
            TreeAlgo::KGreedy { k } => dom_tree_k_greedy_with_scratch(graph, root, k, scratch).0,
            TreeAlgo::KMis { k } => dom_tree_k_mis_with_scratch(graph, root, k, scratch),
        }
    }

    /// Allocating build (one-off callers and compatibility paths).
    pub fn build<A>(&self, graph: &A, root: Node) -> DominatingTree
    where
        A: Adjacency + ?Sized,
    {
        let mut scratch = DomScratch::new();
        self.build_with_scratch(graph, root, &mut scratch).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_graph::generators::er::gnp_connected;

    #[test]
    fn knowledge_radii_match_the_paper() {
        assert_eq!(TreeAlgo::Greedy { r: 3, beta: 1 }.knowledge_radius(), 3);
        assert_eq!(TreeAlgo::Mis { r: 3 }.knowledge_radius(), 3);
        assert_eq!(TreeAlgo::KGreedy { k: 4 }.knowledge_radius(), 1);
        assert_eq!(TreeAlgo::KMis { k: 2 }.knowledge_radius(), 2);
        assert_eq!(TreeAlgo::KGreedy { k: 3 }.expected_rounds(), 3);
        assert_eq!(TreeAlgo::Greedy { r: 2, beta: 0 }.expected_rounds(), 3);
        assert_eq!(TreeAlgo::Mis { r: 3 }.expected_rounds(), 7);
    }

    #[test]
    fn pooled_builds_match_allocating_builds() {
        let g = gnp_connected(50, 0.1, 19);
        let mut scratch = DomScratch::new();
        for algo in [
            TreeAlgo::Greedy { r: 3, beta: 1 },
            TreeAlgo::Mis { r: 3 },
            TreeAlgo::KGreedy { k: 2 },
            TreeAlgo::KMis { k: 2 },
        ] {
            for u in g.nodes() {
                let pooled = algo.build_with_scratch(&g, u, &mut scratch);
                let fresh = algo.build(&g, u);
                assert_eq!(pooled.edges(), fresh.edges(), "{algo:?} u={u}");
            }
        }
    }
}
