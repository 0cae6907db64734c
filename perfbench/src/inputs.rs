//! Seeded input streams: churn batches drawn ahead of the rounds that
//! consume them, so no scenario draw runs inside a timed region.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rspan_engine::{ChurnScenario, TopologyChange};
use rspan_graph::{CsrGraph, DynamicGraph, Node};
use rspan_metric::sample_poisson;

/// Batches drawn ahead at a time: a few rounds' worth, so a stream that
/// is consumed for a tenth of a run draws little it never uses.
const BLOCK: usize = 32;

/// The churn stream of one run: an optional fixed prefix, then the batches
/// a seeded scenario draws against a replica of the topology.  Batch `i` is
/// the same for every set-up repetition and for the reference runs.
pub struct Batches<S> {
    scenario: S,
    replica: DynamicGraph,
    drawn: Vec<Vec<TopologyChange>>,
}

impl<S: ChurnScenario> Batches<S> {
    /// Stream over `graph`: `prefix` first, then `scenario`'s batches.
    /// Draws the first block immediately.
    pub fn new(scenario: S, graph: &CsrGraph, prefix: Vec<Vec<TopologyChange>>) -> Self {
        let mut replica = DynamicGraph::new(graph.clone());
        for change in prefix.iter().flatten() {
            change.apply_to(&mut replica);
        }
        let mut batches = Batches {
            scenario,
            replica,
            drawn: prefix,
        };
        batches.draw_to(BLOCK);
        batches
    }

    fn draw_to(&mut self, len: usize) {
        while self.drawn.len() < len {
            let batch = self.scenario.next_batch(&self.replica);
            for change in &batch {
                change.apply_to(&mut self.replica);
            }
            self.drawn.push(batch);
        }
    }

    /// Batch `i`, drawing the next block first if needed.  Call it before a
    /// round's timed region starts.
    pub fn get(&mut self, i: usize) -> &[TopologyChange] {
        if i >= self.drawn.len() {
            self.draw_to(i + BLOCK);
        }
        &self.drawn[i]
    }
}

/// Link flaps that keep the topology stationary: each round the links that
/// went down the round before come back up, and `Poisson(mean_downs)`
/// other links of the initial graph go down.  A toggling flap process drifts
/// toward half the links, and the round cost drifts with it, so a faster
/// program would run into a sparser graph and hide part of its gain.
pub struct FlapBack {
    universe: Vec<(Node, Node)>,
    mean_downs: f64,
    down: Vec<(Node, Node)>,
    rng: SmallRng,
}

impl FlapBack {
    pub fn new(graph: &CsrGraph, mean_downs: f64, seed: u64) -> Self {
        FlapBack {
            universe: graph.edges().collect(),
            mean_downs,
            down: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl ChurnScenario for FlapBack {
    fn label(&self) -> &str {
        "flap-back"
    }

    fn next_batch(&mut self, _graph: &DynamicGraph) -> Vec<TopologyChange> {
        let up = std::mem::take(&mut self.down);
        let downs = sample_poisson(self.mean_downs, &mut self.rng).min(self.universe.len() / 2);
        while self.down.len() < downs {
            let link = self.universe[self.rng.gen_range(0..self.universe.len())];
            if !up.contains(&link) && !self.down.contains(&link) {
                self.down.push(link);
            }
        }
        let up = up.into_iter().map(|(u, v)| TopologyChange::AddEdge(u, v));
        let down = self
            .down
            .iter()
            .map(|&(u, v)| TopologyChange::RemoveEdge(u, v));
        up.chain(down).collect()
    }
}

/// A scenario that hands out batches drawn beforehand, for drivers that
/// pull their batch from a [`ChurnScenario`] themselves.
#[derive(Default)]
pub struct Replay {
    pub next: Vec<TopologyChange>,
}

impl ChurnScenario for Replay {
    fn label(&self) -> &str {
        "replay"
    }

    fn next_batch(&mut self, _graph: &DynamicGraph) -> Vec<TopologyChange> {
        std::mem::take(&mut self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_engine::LinkFlapScenario;
    use rspan_graph::generators::udg::udg_with_density;

    #[test]
    fn batches_are_deterministic_and_valid() {
        let g = udg_with_density(200, 8.0, 5).graph;
        let flaps = |seed| LinkFlapScenario::new(&g, 3.0, seed);
        let (mut a, mut b) = (
            Batches::new(flaps(9), &g, vec![]),
            Batches::new(flaps(9), &g, vec![]),
        );
        let mut live = DynamicGraph::new(g.clone());
        for i in [0, 3, 1, 300, 2] {
            assert_eq!(a.get(i), b.get(i));
        }
        for i in 0..400 {
            for change in a.get(i) {
                change.apply_to(&mut live); // panics if a batch is invalid
            }
        }
        let mut c = Batches::new(flaps(10), &g, vec![]);
        assert!((0..8).any(|i| a.get(i) != c.get(i)));
    }

    #[test]
    fn prefix_comes_first_and_is_applied() {
        let g = udg_with_density(100, 8.0, 2).graph;
        let (u, v) = g.edges().next().expect("an edge");
        let prefix = vec![vec![TopologyChange::RemoveEdge(u, v)]];
        let mut b = Batches::new(LinkFlapScenario::new(&g, 2.0, 1), &g, prefix.clone());
        assert_eq!(b.get(0), &prefix[0][..]);
        let mut live = DynamicGraph::new(g.clone());
        for i in 0..50 {
            for change in b.get(i) {
                change.apply_to(&mut live);
            }
        }
    }

    #[test]
    fn flap_back_restores_last_rounds_links() {
        let g = udg_with_density(300, 8.0, 4).graph;
        let mut b = Batches::new(FlapBack::new(&g, 5.0, 3), &g, vec![]);
        let mut live = DynamicGraph::new(g.clone());
        let mut downs = 0;
        for i in 0..200 {
            for change in b.get(i) {
                change.apply_to(&mut live);
            }
            // The graph is the initial one minus this round's downed links.
            let missing = g.m() - live.to_csr().m();
            let removed = b
                .get(i)
                .iter()
                .filter(|c| matches!(c, TopologyChange::RemoveEdge(..)));
            assert_eq!(missing, removed.count());
            downs += missing;
        }
        assert!(
            (800..1200).contains(&downs),
            "{downs} links down over 200 rounds"
        );
    }

    #[test]
    fn replay_hands_out_each_batch_once() {
        let mut r = Replay::default();
        let g = DynamicGraph::new(udg_with_density(10, 3.0, 1).graph);
        r.next = vec![TopologyChange::AddEdge(0, 1)];
        assert_eq!(r.next_batch(&g).len(), 1);
        assert!(r.next_batch(&g).is_empty());
    }
}
