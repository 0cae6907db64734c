//! Experiment E9 — the "constant time" claims: communication rounds and
//! message counts of the distributed RemSpan protocol (Algorithm 3, and the
//! `2r − 1 + 2β` bound of §2.3).
//!
//! Sweeps the network size at fixed density and the dominating-tree radius
//! (i.e. ε of Theorem 1): rounds must be flat in `n` and equal to
//! `2r − 1 + 2β`; messages grow linearly in `n` at fixed radius.
//!
//! Run with `cargo run -p rspan-bench --release --bin rounds`.

use rspan_bench::{format_table, scaled_density_udg, Cell, Table};
use rspan_distributed::run_remspan_protocol;
use rspan_domtree::TreeAlgo;

fn main() {
    println!("=== E9: rounds and messages of the distributed construction ===\n");

    println!("-- n-sweep (constant density UDG, Theorem 2 strategy, k = 1) --");
    let sizes = [100usize, 200, 400, 800, 1600];
    let mut table = Table::new(vec![
        "n",
        "rounds",
        "bound 2r-1+2β",
        "messages",
        "messages / node",
    ]);
    let strategy = TreeAlgo::KGreedy { k: 1 };
    let mut rounds_seen = Vec::new();
    for &n in &sizes {
        let w = scaled_density_udg(n, 12.0, 51);
        let run = run_remspan_protocol(&w.graph, strategy);
        rounds_seen.push(run.stats.rounds);
        table.push_row(vec![
            Cell::Int(n as u64),
            Cell::Int(run.stats.rounds as u64),
            Cell::Int(strategy.expected_rounds() as u64),
            Cell::Int(run.stats.messages),
            Cell::Float(run.stats.messages as f64 / n as f64, 1),
        ]);
        assert!(
            run.stats.rounds <= strategy.expected_rounds() + 1,
            "protocol exceeded its round bound at n = {n}"
        );
    }
    println!("{}", format_table(&table));
    assert!(
        rounds_seen.windows(2).all(|w| w[0] == w[1]),
        "round count is not constant in n: {rounds_seen:?}"
    );
    println!("round count is constant in n ✔\n");

    println!("-- radius sweep (n = 400): Theorem 1 strategy with shrinking ε --");
    let mut table = Table::new(vec![
        "ε",
        "radius r",
        "rounds",
        "bound 2r-1+2β",
        "messages / node",
    ]);
    let w = scaled_density_udg(400, 12.0, 52);
    for &eps in &[1.0f64, 0.5, 1.0 / 3.0, 0.25] {
        let r = rspan_core::epsilon_radius(eps);
        let strategy = TreeAlgo::Mis { r };
        let run = run_remspan_protocol(&w.graph, strategy);
        assert!(run.stats.rounds <= strategy.expected_rounds() + 1);
        table.push_row(vec![
            Cell::Float(eps, 3),
            Cell::Int(r as u64),
            Cell::Int(run.stats.rounds as u64),
            Cell::Int(strategy.expected_rounds() as u64),
            Cell::Float(run.stats.messages as f64 / w.graph.n() as f64, 1),
        ]);
    }
    println!("{}", format_table(&table));
    println!(
        "\nshape check: rounds grow with the knowledge radius (O(1/ε)) and are independent of n;\n\
         per-node message cost grows with the radius-R ball size, not with n."
    );
}
