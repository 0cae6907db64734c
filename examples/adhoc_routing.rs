//! Link-state routing on an ad-hoc network: the application that motivates
//! remote-spanners (paper §1, experiment E10 in miniature).
//!
//! In OSPF-style link-state routing every node floods its full neighbor list
//! and routes on the whole topology.  OLSR-style optimisation floods only a
//! sub-graph `H`; each node still knows its own neighbors, so it routes
//! greedily on `H_u`.  This example compares, on one random unit-disk network:
//!
//! * the number of links each node must advertise (the flooding cost), and
//! * the realised greedy-routing stretch,
//!
//! for the full topology and for the paper's remote-spanner constructions,
//! including the end-to-end distributed protocol execution (rounds/messages).
//!
//! Run with `cargo run --release --example adhoc_routing`.

use remote_spanners::core::advertisement_cost;
use remote_spanners::prelude::*;

fn main() {
    let n = 350;
    let instance = udg_with_density(n, 14.0, 7);
    let graph = &instance.graph;
    println!(
        "ad-hoc network: {} nodes, {} links, average degree {:.1}",
        graph.n(),
        graph.m(),
        graph.avg_degree()
    );

    // Sample source/destination pairs for the routing measurement.
    let pairs: Vec<(Node, Node)> = (0..600u64)
        .map(|i| {
            let s = ((i * 2654435761) % graph.n() as u64) as Node;
            let t = ((i * 40503 + 12345) % graph.n() as u64) as Node;
            (s, t)
        })
        .filter(|(s, t)| s != t)
        .collect();

    println!(
        "\n{:<42} {:>10} {:>12} {:>12} {:>12}",
        "advertised sub-graph", "edges", "adv/node", "max stretch", "mean stretch"
    );

    // Every advertised sub-graph is one `SpannerAlgo` variant.
    let full = SpannerAlgo::FullTopology.build(graph).unwrap();
    row("full topology (OSPF-style)", &full, &pairs);

    let exact = SpannerAlgo::Exact.build(graph).unwrap();
    row("(1,0)-remote-spanner  [Thm 2, k=1]", &exact, &pairs);

    let kconn = SpannerAlgo::KConnecting { k: 2 }.build(graph).unwrap();
    row("2-connecting (1,0)-RS [Thm 2, k=2]", &kconn, &pairs);

    let eps = SpannerAlgo::Epsilon { eps: 0.5 }.build(graph).unwrap();
    row("(1.5, 0)-RS           [Thm 1, ε=1/2]", &eps, &pairs);

    let two = SpannerAlgo::TwoConnecting.build(graph).unwrap();
    row("2-connecting (2,-1)-RS [Thm 3]", &two, &pairs);

    // End-to-end distributed execution of the k = 1 construction.
    println!("\ndistributed RemSpan protocol (Theorem 2, k = 1):");
    let run = run_remspan_protocol(graph, TreeAlgo::KGreedy { k: 1 });
    println!(
        "  completed in {} rounds with {} transmissions ({:.1} per node)",
        run.stats.rounds,
        run.stats.messages,
        run.stats.messages as f64 / graph.n() as f64
    );
    assert_eq!(
        run.spanner.edge_set(),
        exact.spanner.edge_set(),
        "the protocol must reproduce the centralized construction"
    );
    println!("  protocol output matches the centralized construction ✔");
}

fn row(label: &str, built: &BuiltSpanner<'_>, pairs: &[(Node, Node)]) {
    let (mean_adv, _max_adv) = advertisement_cost(&built.spanner);
    let routing = measure_routing(&built.spanner, pairs);
    assert_eq!(
        routing.failed, 0,
        "{label}: greedy routing failed to deliver"
    );
    println!(
        "{:<42} {:>10} {:>12.2} {:>12.3} {:>12.3}",
        label,
        built.num_edges(),
        mean_adv,
        routing.max_stretch,
        routing.mean_stretch
    );
    // Routing stretch is bounded by the remote-spanner guarantee.
    let worst_allowed = built.guarantee.alpha + built.guarantee.beta.max(0.0);
    assert!(
        routing.max_stretch <= worst_allowed.max(built.guarantee.alpha) + 1e-9,
        "{label}: routing stretch {} exceeds the guarantee",
        routing.max_stretch
    );
}
