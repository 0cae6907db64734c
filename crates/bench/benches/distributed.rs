//! Criterion micro-benchmarks B5/B6: the distributed protocol simulator and
//! greedy link-state routing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rspan_bench::scaled_density_udg;
use rspan_core::exact_remote_spanner;
use rspan_distributed::{greedy_route, run_remspan_protocol};
use rspan_domtree::TreeAlgo;
use rspan_graph::Node;

fn protocol_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed/protocol");
    group.sample_size(10);
    for &n in &[200usize, 400, 800] {
        let w = scaled_density_udg(n, 12.0, 23);
        group.bench_with_input(BenchmarkId::new("remspan_k1", n), &w.graph, |b, g| {
            b.iter(|| {
                run_remspan_protocol(g, TreeAlgo::KGreedy { k: 1 })
                    .stats
                    .messages
            })
        });
        group.bench_with_input(BenchmarkId::new("remspan_thm3", n), &w.graph, |b, g| {
            b.iter(|| {
                run_remspan_protocol(g, TreeAlgo::KMis { k: 2 })
                    .stats
                    .messages
            })
        });
    }
    group.finish();
}

fn greedy_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed/routing");
    group.sample_size(10);
    let w = scaled_density_udg(500, 12.0, 29);
    let built = exact_remote_spanner(&w.graph);
    let pairs: Vec<(Node, Node)> = (0..50u64)
        .map(|i| {
            (
                ((i * 97) % w.graph.n() as u64) as Node,
                ((i * 233 + 11) % w.graph.n() as u64) as Node,
            )
        })
        .filter(|(s, t)| s != t)
        .collect();
    group.bench_function("greedy_route_50_pairs", |b| {
        b.iter(|| {
            pairs
                .iter()
                .filter_map(|&(s, t)| greedy_route(&built.spanner, s, t).hops())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, protocol_execution, greedy_routing);
criterion_main!(benches);
