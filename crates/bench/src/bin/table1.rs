//! Experiment E1 — regenerates Table 1 of the paper.
//!
//! Table 1 compares remote-spanners with regular spanners for several input
//! assumptions: edge counts, stretch and computation time (rounds).  The
//! absolute numbers depend on the instance; what must match the paper is the
//! ordering and the growth regime of each row, which the companion scaling
//! experiments (E3–E6) quantify.
//!
//! Run with `cargo run -p rspan-bench --release --bin table1`.

use rspan_bench::{fixed_square_poisson_udg, format_table, ubg_doubling_2d, Cell, Table};
use rspan_core::{
    baswana_sen_spanner, epsilon_remote_spanner, exact_remote_spanner, full_topology,
    greedy_spanner, k_connecting_remote_spanner, spanner_as_remote_guarantee,
    two_connecting_remote_spanner, verify_plain_stretch, verify_remote_stretch, BuiltSpanner,
};
use rspan_domtree::TreeAlgo;
use rspan_graph::generators::er::gnp_connected;
use rspan_graph::CsrGraph;

fn main() {
    println!("=== E1: Table 1 — remote-spanners versus regular spanners ===\n");

    // The three input regimes of Table 1.
    let any_graph = gnp_connected(300, 0.05, 42);
    let rand_udg = fixed_square_poisson_udg(500.0, 8.0, 42).graph;
    let ubg = ubg_doubling_2d(500, 12.0, 42).graph;
    let k = 3usize;

    println!(
        "instances: any-graph = G(300, 0.05) with {} edges; random UDG n={} with {} edges; \
         UBG n={} with {} edges\n",
        any_graph.m(),
        rand_udg.n(),
        rand_udg.m(),
        ubg.n(),
        ubg.m()
    );

    let mut table = Table::new(vec![
        "input",
        "construction (paper row)",
        "edges",
        "% of G",
        "stretch verified",
        "rounds",
    ]);

    // Row: (k, k−1)-spanner on any graph [2] — Baswana–Sen baseline stands in.
    let bs = baswana_sen_spanner(&any_graph, k, 7);
    push_plain(&mut table, "any graph", &any_graph, &bs, "-");
    // Row: (k, 0)-remote-spanner derived from the same baseline.
    let bs_remote_ok =
        verify_remote_stretch(&bs.spanner, &spanner_as_remote_guarantee(&bs.guarantee));
    table.push_row(vec![
        Cell::Text("any graph".into()),
        Cell::Text(format!("{} as remote-spanner", bs.name)),
        Cell::Int(bs.num_edges() as u64),
        Cell::Float(100.0 * bs.num_edges() as f64 / any_graph.m() as f64, 1),
        Cell::Text(verdict(bs_remote_ok.holds())),
        Cell::Text("-".into()),
    ]);
    // Greedy (2k−1, 0)-spanner for reference.
    let gr = greedy_spanner(&any_graph, k);
    push_plain(&mut table, "any graph", &any_graph, &gr, "-");
    // Row: (1, 0)-spanner = all edges (trivial).
    let full = full_topology(&any_graph);
    push_remote(&mut table, "any graph", &any_graph, &full, "-");
    // Row: k-connecting (1,0)-remote-spanner (Theorem 2).
    let kc = k_connecting_remote_spanner(&any_graph, k);
    push_remote(
        &mut table,
        "any graph",
        &any_graph,
        &kc,
        &TreeAlgo::KGreedy { k }.expected_rounds().to_string(),
    );

    // Row: (1, 0)-remote-spanner on a random UDG (Theorem 2, k = 1).
    let udg_full = full_topology(&rand_udg);
    push_remote(&mut table, "rand. UDG", &rand_udg, &udg_full, "-");
    let udg_exact = exact_remote_spanner(&rand_udg);
    push_remote(
        &mut table,
        "rand. UDG",
        &rand_udg,
        &udg_exact,
        &TreeAlgo::KGreedy { k: 1 }.expected_rounds().to_string(),
    );

    // Row: (1+ε, 1−2ε)-remote-spanner on a UBG with unknown distances (Thm 1).
    let ubg_full = full_topology(&ubg);
    push_remote(&mut table, "UBG unknown dist.", &ubg, &ubg_full, "-");
    let eps = epsilon_remote_spanner(&ubg, 0.5);
    push_remote(
        &mut table,
        "UBG unknown dist.",
        &ubg,
        &eps,
        &TreeAlgo::Mis { r: 3 }.expected_rounds().to_string(),
    );
    // Row: 2-connecting (2, −1)-remote-spanner on the UBG (Theorem 3).
    let two = two_connecting_remote_spanner(&ubg);
    push_remote(
        &mut table,
        "UBG unknown dist.",
        &ubg,
        &two,
        &TreeAlgo::KMis { k: 2 }.expected_rounds().to_string(),
    );

    println!("{}", format_table(&table));
    println!(
        "\nNotes: 'rounds' is the communication-round count 2r−1+2β of the distributed\n\
         construction (Algorithm 3); '-' marks centralized baselines.  The k-fault-tolerant\n\
         geometric spanner row of Table 1 has no graph-input analogue and is covered by the\n\
         comparison discussion in EXPERIMENTS.md."
    );
}

fn verdict(ok: bool) -> String {
    if ok {
        "OK".into()
    } else {
        "VIOLATED".into()
    }
}

fn push_remote(
    table: &mut Table,
    input: &str,
    graph: &CsrGraph,
    built: &BuiltSpanner<'_>,
    rounds: &str,
) {
    let ok = verify_remote_stretch(&built.spanner, &built.guarantee).holds();
    table.push_row(vec![
        Cell::Text(input.into()),
        Cell::Text(built.name.clone()),
        Cell::Int(built.num_edges() as u64),
        Cell::Float(100.0 * built.num_edges() as f64 / graph.m() as f64, 1),
        Cell::Text(verdict(ok)),
        Cell::Text(rounds.into()),
    ]);
}

fn push_plain(
    table: &mut Table,
    input: &str,
    graph: &CsrGraph,
    built: &BuiltSpanner<'_>,
    rounds: &str,
) {
    let ok = verify_plain_stretch(&built.spanner, &built.guarantee).holds();
    table.push_row(vec![
        Cell::Text(input.into()),
        Cell::Text(built.name.clone()),
        Cell::Int(built.num_edges() as u64),
        Cell::Float(100.0 * built.num_edges() as f64 / graph.m() as f64, 1),
        Cell::Text(verdict(ok)),
        Cell::Text(rounds.into()),
    ]);
}
