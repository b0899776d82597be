//! `batch_social` and `batch_road`: build → freeze → cold start → query.
//!
//! Each round builds the sketches of the whole graph, freezes them to a
//! single-file store, loads that file mapped and verified, and runs a
//! fixed number of query passes over every node. Rounds repeat until the
//! run's time is up; each metric is the median over rounds (the p50
//! latency is taken over every query batch of the run).
//!
//! * `batch_social` — Barabási–Albert, unit weights: the BFS builder path,
//!   the default (v1, full-width) store format.
//! * `batch_road` — a grid with quantized weights in [0.5, 2.0): the
//!   Dijkstra/heap builder path, the compressed v2 format and its lazy
//!   per-block decoding on mapped loads.

use std::time::Instant;

use adsketch_core::builder::{pruned_dijkstra, BuildStats};
use adsketch_core::{uniform_ranks, AdsSet, FrozenAdsSet, LoadOptions, QueryEngine, StoreFormat};
use adsketch_graph::{generators, Graph, NodeId};
use adsketch_util::SplitMix64;

use crate::report::Report;
use crate::stats::{disk_bytes, heap_peak_mb, median, quantile, sample_nodes};
use crate::{checks, probe, Ctx, K, RANK_SEED};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Social,
    Road,
}

/// Barabási–Albert size and attachment degree.
const SOCIAL_N: usize = 10_000;
const SOCIAL_M: usize = 4;
/// Grid shape of the road workload.
const ROAD_ROWS: usize = 100;
const ROAD_COLS: usize = 120;
/// Set-up generates the graph in timed blocks of
/// `Family::setup_per_block` generations: `SETUP_BLOCKS` before the timed
/// section and one more after each round, so the blocks sample the host
/// across the whole run. `setup_s` is the median block time over its
/// block size. One generation takes a few ms, and the time of even a
/// 60 ms block drifted by ±15% within a process and more between
/// processes when all blocks ran back to back.
const SETUP_BLOCKS: usize = 3;
/// Mapped, verified loads of the round's store (each one a cold start).
const COLD_LOADS: usize = 3;
/// Query passes per round; the first one after a load is the cold pass.
const PASSES: usize = 8;
/// Nodes per request (harmonic plus every cardinality distance): one
/// latency sample.
const BATCH: usize = 1024;
/// Every `NBHD_STRIDE`-th node gets a neighborhood-function query.
const NBHD_STRIDE: usize = 32;
/// Tail percentile of request latency, taken over each round's warm
/// passes (70-84 requests) and reported as the median over rounds. The
/// cold pass is left out: with one request in eight cold, p90 of the mix
/// falls at the low edge of the cold requests' cluster, and on
/// `batch_road` it moved 34% between two sets of runs while p50 moved 13%.
/// The cold pass still counts in the throughput and in
/// `engine.first_sweep_s`.
const TAIL: f64 = 0.9;
/// Nodes in the exact-truth sample of check (a).
const TRUTH_SAMPLE: usize = 48;

impl Family {
    fn generate(self, seed: u64) -> Graph {
        match self {
            Family::Social => generators::barabasi_albert(SOCIAL_N, SOCIAL_M, seed),
            Family::Road => road_graph(ROAD_ROWS, ROAD_COLS, seed),
        }
    }

    /// A small graph of the same family for the reference-builder check.
    fn small(self, seed: u64) -> Graph {
        match self {
            Family::Social => generators::barabasi_albert(400, SOCIAL_M, seed),
            Family::Road => road_graph(18, 22, seed),
        }
    }

    fn setup_per_block(self) -> usize {
        match self {
            Family::Social => 10,
            Family::Road => 20,
        }
    }

    fn format(self) -> StoreFormat {
        match self {
            Family::Social => StoreFormat::V1,
            Family::Road => StoreFormat::V2,
        }
    }

    /// Cardinality query distances: a few hops on the social graph, a few
    /// mean edge lengths on the road grid.
    pub fn dists(self) -> &'static [f64] {
        match self {
            Family::Social => &[2.0, 3.0, 4.0],
            Family::Road => &[5.0, 10.0, 20.0],
        }
    }
}

/// An undirected grid with quantized weights in [0.5, 2.0).
pub fn road_graph(rows: usize, cols: usize, seed: u64) -> Graph {
    let edges =
        generators::assign_uniform_weights(&generators::grid_edges(rows, cols), 0.5, 2.0, seed);
    Graph::undirected_weighted(rows * cols, &edges).expect("grid ids are in range")
}

/// Wall times of one pass of queries over every node.
#[derive(Default)]
pub struct Pass {
    pub total_s: f64,
    pub harmonic_s: f64,
    pub cardinality_s: f64,
    pub nbhd_s: f64,
    pub nbhd_nodes: f64,
    pub node_queries: f64,
    /// Engine batch calls made.
    pub calls: u64,
}

/// One query pass: harmonic and cardinality at each distance for every
/// node in requests of `BATCH` nodes, plus the neighborhood function of
/// every `NBHD_STRIDE`-th node. Pushes one latency sample per request.
pub fn query_pass<V: adsketch_core::AdsView + Sync>(
    ctx: &mut Ctx,
    engine: &QueryEngine<'_, V>,
    nodes: &[NodeId],
    dists: &[f64],
    latencies_ms: &mut Vec<f64>,
    request: u64,
) -> Pass {
    let tr = &mut ctx.tracer;
    let mut pass = Pass::default();
    let open = tr.begin("engine.pass", request);
    for chunk in nodes.chunks(BATCH) {
        // One request: harmonic and every cardinality distance for the
        // same nodes. Timing the mix as a unit keeps the latency samples
        // alike; per-kind samples cluster by kind and distance, and a
        // percentile falling between two clusters jumps between them.
        let req = tr.begin("engine.request", request);
        let (_, dt) = tr.time("engine.harmonic_batch", request, || {
            engine.harmonic_batch(chunk)
        });
        pass.harmonic_s += dt;
        pass.calls += 1;
        for &d in dists {
            let queries: Vec<(NodeId, f64)> = chunk.iter().map(|&v| (v, d)).collect();
            let (_, dt) = tr.time("engine.cardinality_batch", request, || {
                engine.cardinality_batch(&queries)
            });
            pass.cardinality_s += dt;
            pass.calls += 1;
        }
        latencies_ms.push(tr.end(req) * 1e3);
    }
    let sample: Vec<NodeId> = nodes.iter().copied().step_by(NBHD_STRIDE).collect();
    for chunk in sample.chunks(BATCH / 8) {
        let (_, dt) = tr.time("engine.nbhd_fn_batch", request, || {
            engine.neighborhood_function_batch(chunk)
        });
        pass.nbhd_s += dt;
        pass.calls += 1;
    }
    pass.total_s = tr.end(open);
    pass.nbhd_nodes = sample.len() as f64;
    pass.node_queries = (nodes.len() * (1 + dists.len()) + sample.len()) as f64;
    pass
}

/// One timed set-up block: the graph and its ranks generated
/// `family.setup_per_block()` times. Pushes the block's time per
/// generation to `setup` and each generation's time to `gen`, and returns
/// the last graph and ranks.
fn setup_block(
    ctx: &mut Ctx,
    family: Family,
    graph_seed: u64,
    block: usize,
    setup: &mut Vec<f64>,
    gen: &mut Vec<f64>,
) -> (Graph, Vec<f64>) {
    let per_block = family.setup_per_block();
    let t0 = Instant::now();
    let mut last = None;
    for i in 0..per_block {
        let (graph, dt) = ctx
            .tracer
            .time("graph.generate", (block * per_block + i) as u64, || {
                family.generate(graph_seed)
            });
        let ranks = uniform_ranks(graph.num_nodes(), RANK_SEED);
        gen.push(dt);
        last = Some((graph, ranks));
    }
    setup.push(t0.elapsed().as_secs_f64() / per_block as f64);
    last.expect("a block generates at least once")
}

pub fn run(ctx: &mut Ctx, family: Family) -> Report {
    let mut report = Report::new();
    let graph_seed = ctx.seed_for(1);
    let rank_seed = RANK_SEED;

    // Set-up: generate the input graph, in timed blocks.
    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let mut g = None;
    for b in 0..SETUP_BLOCKS {
        g = Some(setup_block(
            ctx, family, graph_seed, b, &mut setup, &mut gen,
        ));
    }
    let (g, ranks) = g.expect("at least one set-up");
    let n = g.num_nodes();
    let nodes: Vec<NodeId> = (0..n as NodeId).collect();
    let dists = family.dists();
    let path = ctx.work.join("store.adsk");
    report.note(format!(
        "{family:?}: n={n} arcs={} k={K} format={:?} seed={}",
        g.num_arcs(),
        family.format(),
        ctx.seed
    ));

    // Timed section: whole rounds until the time is up.
    let mut build_s = Vec::new();
    let mut columnize_s = Vec::new();
    let mut write_s = Vec::new();
    let mut cold_ms = Vec::new();
    let mut load_verify_ms = Vec::new();
    let mut load_trusted_ms = Vec::new();
    let mut rate = Vec::new();
    let mut first_pass_s = Vec::new();
    let mut warm_pass_s = Vec::new();
    let (mut h_nodes, mut h_s, mut c_nodes, mut c_s, mut f_nodes, mut f_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut latencies_ms = Vec::new();
    let mut round_tails_ms = Vec::new();
    let mut round_s = [Vec::new(), Vec::new()];
    let mut store_bytes = 0u64;
    let mut last: Option<(AdsSet, BuildStats)> = None;
    let traced = ctx.tracer.enabled();
    let started = Instant::now();
    // Peak heap through set-up and the first round: later rounds repeat
    // the same work.
    let mut peak_heap = 0.0;
    // Operations: one build and freeze and `COLD_LOADS` loads per round,
    // plus every engine batch call.
    let mut calls = 0u64;
    let mut r = 0u64;
    while r == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        // The traced run alternates traced and untraced rounds so the
        // tracing overhead can be read off the difference.
        let span_on = traced && r.is_multiple_of(2);
        ctx.tracer.set_enabled(span_on);
        // Only one round's sketches are alive at a time.
        drop(last.take());
        let round = ctx.tracer.begin("round", r);
        let ((ads, stats), b) = ctx.tracer.time("builder.build", r, || {
            pruned_dijkstra::build_with_stats(&g, K, &ranks).expect("uniform ranks are valid")
        });
        build_s.push(b);
        let (frozen, c) = ctx
            .tracer
            .time("frozen.columnize", r, || FrozenAdsSet::from_ads_set(&ads));
        let (_, w) = ctx.tracer.time("frozen.encode_write", r, || {
            frozen
                .save_format(&path, family.format())
                .expect("write store")
        });
        drop(frozen);
        columnize_s.push(c);
        write_s.push(w);
        store_bytes = disk_bytes(&path);

        // Several cold starts per round: each one is short, and its median
        // is steadier than one sample.
        let mut store = None;
        for _ in 0..COLD_LOADS {
            drop(store.take());
            let cold = ctx.tracer.begin("cold_start", r);
            let (loaded, lv) = ctx.tracer.time("frozen.load_verify", r, || {
                FrozenAdsSet::load_with(&path, LoadOptions::mapped()).expect("load store")
            });
            let (first, _) = ctx.tracer.time("engine.first_answer", r, || {
                QueryEngine::with_threads(&loaded, 1).harmonic_batch(&[0])
            });
            assert_eq!(first.len(), 1);
            cold_ms.push(ctx.tracer.end(cold) * 1e3);
            load_verify_ms.push(lv * 1e3);
            store = Some(loaded);
        }
        let store = store.expect("at least one load");
        let engine = QueryEngine::with_threads(&store, 1);

        let mut warm_start = latencies_ms.len();
        let mut round_nodes = 0.0;
        let mut round_query_s = 0.0;
        for p in 0..PASSES {
            let pass = query_pass(ctx, &engine, &nodes, dists, &mut latencies_ms, r);
            round_nodes += pass.node_queries;
            calls += pass.calls;
            round_query_s += pass.total_s;
            if p == 0 {
                first_pass_s.push(pass.total_s);
                warm_start = latencies_ms.len();
            } else {
                warm_pass_s.push(pass.total_s);
                h_nodes += n as f64;
                h_s += pass.harmonic_s;
                c_nodes += (n * dists.len()) as f64;
                c_s += pass.cardinality_s;
                f_nodes += pass.nbhd_nodes;
                f_s += pass.nbhd_s;
            }
        }
        round_tails_ms.push(quantile(&latencies_ms[warm_start..], TAIL));
        rate.push(round_nodes / round_query_s);
        round_s[usize::from(span_on)].push(ctx.tracer.end(round));

        if traced {
            // Only the traced run pays for the warm-restart load.
            let (trusted, lt) = ctx.tracer.time("frozen.load_trusted", r, || {
                FrozenAdsSet::load_with(&path, LoadOptions::trusted()).expect("trusted load")
            });
            drop(trusted);
            load_trusted_ms.push(lt * 1e3);
        }
        drop(store);
        last = Some((ads, stats));
        if r == 0 {
            peak_heap = heap_peak_mb();
        }
        // One more set-up block, outside every other measurement.
        drop(setup_block(
            ctx,
            family,
            graph_seed,
            SETUP_BLOCKS + r as usize,
            &mut setup,
            &mut gen,
        ));
        r += 1;
    }
    ctx.tracer.set_enabled(traced);
    let rounds = r;
    let (ads, bstats) = last.expect("at least one round");

    // Correctness checks, untimed.
    let store = FrozenAdsSet::load_with(&path, LoadOptions::mapped()).expect("reload store");
    let mut rng = SplitMix64::new(ctx.seed_for(3));
    let sample = sample_nodes(n, TRUTH_SAMPLE, &mut rng);
    let (nh, nc, bound) = checks::nrmse_against_exact(&g, &store, &sample, dists);
    report.check(
        "a.nrmse_vs_exact",
        nh <= bound && nc <= bound,
        format!(
            "harmonic {nh:.4}, cardinality {nc:.4}, bound {bound:.4} on {} nodes",
            sample.len()
        ),
    );
    let small = family.small(graph_seed);
    let res = checks::builder_matches_reference(&small, K, rank_seed);
    report.check(
        "b.builder_equals_reference",
        res.is_ok(),
        format!("n={} {}", small.num_nodes(), res.err().unwrap_or_default()),
    );
    let res = checks::store_answers_match_hip(&store, &ads, dists);
    report.check(
        "c.store_equals_in_memory_hip",
        res.is_ok(),
        format!("{n} nodes {}", res.err().unwrap_or_default()),
    );
    drop(store);

    report.attempted = rounds * (2 + COLD_LOADS as u64) + calls;
    report.note(format!(
        "{rounds} rounds, {} query batches, store {store_bytes} B",
        latencies_ms.len()
    ));
    report.note(format!("set-up s per generation, by block: {setup:.5?}"));
    report.note(format!("build_s per round: {build_s:.3?}"));
    report.note(format!("node queries/s per round: {rate:.0?}"));

    let e = &mut report.e2e;
    e.insert("setup_s", median(&setup));
    e.insert("build_s", median(&build_s));
    let freeze: Vec<f64> = columnize_s
        .iter()
        .zip(&write_s)
        .map(|(a, b)| a + b)
        .collect();
    e.insert("freeze_s", median(&freeze));
    e.insert("cold_start_ms", median(&cold_ms));
    e.insert("store_bytes", store_bytes as f64);
    e.insert("throughput_per_s", median(&rate));
    e.insert("latency_p50_ms", median(&latencies_ms));
    e.insert("latency_tail_ms", median(&round_tails_ms));

    if traced {
        let l = &mut report.layers;
        l.insert("graph.generate_s", median(&gen));
        l.insert("builder.build_s", median(&build_s));
        l.insert("builder.relaxations", bstats.relaxations as f64);
        l.insert("builder.heap_pushes", bstats.heap_pushes as f64);
        l.insert("builder.pruned_at_relax", bstats.pruned_at_relax as f64);
        l.insert("builder.entries", ads.total_entries() as f64);
        l.insert("frozen.columnize_s", median(&columnize_s));
        l.insert("frozen.encode_write_s", median(&write_s));
        l.insert(
            "frozen.bytes_per_entry",
            store_bytes as f64 / ads.total_entries() as f64,
        );
        l.insert("frozen.load_verify_ms", median(&load_verify_ms));
        l.insert("frozen.load_trusted_ms", median(&load_trusted_ms));
        l.insert("engine.first_sweep_s", median(&first_pass_s));
        l.insert("engine.warm_sweep_s", median(&warm_pass_s));
        l.insert("engine.harmonic_nodes_per_s", h_nodes / h_s);
        l.insert("engine.cardinality_nodes_per_s", c_nodes / c_s);
        l.insert("engine.nbhd_fn_nodes_per_s", f_nodes / f_s);
        l.insert("trace.overhead_pct", overhead_pct(&round_s));
        probe::serve_layers(ctx, &ads, &mut report);
        probe::ingest_layers(ctx, &g, rank_seed, &mut report);
    }
    report.e2e.insert("peak_heap_mb", peak_heap);
    report
}

/// Tracing overhead in percent: median traced round over median
/// untraced round, minus one. `rounds[1]` holds the traced rounds.
pub fn overhead_pct(rounds: &[Vec<f64>; 2]) -> f64 {
    if rounds[0].is_empty() || rounds[1].is_empty() {
        return 0.0;
    }
    (median(&rounds[1]) / median(&rounds[0]) - 1.0) * 100.0
}
