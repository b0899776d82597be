//! Per-layer probes for the layers a workload does not drive itself.
//!
//! Every traced run reports every per-layer metric. A layer that the
//! workload exercises is measured on the workload's own traffic; the
//! others are measured here, once, on a small slice of the same
//! workload's graph or sketches, after its timed section. The README
//! names, for each layer metric, the workload whose traffic it follows.

use adsketch_core::{AdsSet, FrozenAdsSet, LoadOptions, QueryEngine, StoreFormat};
use adsketch_graph::{Graph, NodeId};
use adsketch_serve::Client;

use crate::batch::query_pass;
use crate::ingest::{replay_layers, round_layers, stream_round};
use crate::report::Report;
use crate::serve::{router_probe, serve_batch, Fleet, LayerSamples, Tables, Traffic, CACHE_BYTES};
use crate::stats::{disk_bytes, median};
use crate::Ctx;

/// Batches sent by the serve probe.
const SERVE_BATCHES: u64 = 256;
/// Arcs streamed by the ingest probe, and generations published.
const INGEST_ARCS: usize = 4_000;
const INGEST_GENERATIONS: usize = 4;
/// Query passes of the store probe (the first one is the cold pass).
const STORE_PASSES: usize = 3;

/// `frozen.*` and `engine.*`: one freeze, write, verified and trusted
/// load, and a few query passes over `ads` in `format`.
pub fn store_layers(
    ctx: &mut Ctx,
    ads: &AdsSet,
    format: StoreFormat,
    dists: &[f64],
    report: &mut Report,
) {
    let path = ctx.work.join("probe-store.adsk");
    let (frozen, columnize_s) = ctx
        .tracer
        .time("frozen.columnize", 0, || FrozenAdsSet::from_ads_set(ads));
    let (_, write_s) = ctx.tracer.time("frozen.encode_write", 0, || {
        frozen.save_format(&path, format).expect("write store")
    });
    drop(frozen);
    let bytes = disk_bytes(&path);
    let (store, verify_s) = ctx.tracer.time("frozen.load_verify", 0, || {
        FrozenAdsSet::load_with(&path, LoadOptions::mapped()).expect("load")
    });
    let (trusted, trusted_s) = ctx.tracer.time("frozen.load_trusted", 0, || {
        FrozenAdsSet::load_with(&path, LoadOptions::trusted()).expect("load")
    });
    drop(trusted);
    let engine = QueryEngine::with_threads(&store, 1);
    let nodes: Vec<NodeId> = (0..ads.num_nodes() as NodeId).collect();
    let mut lat = Vec::new();
    let passes: Vec<_> = (0..STORE_PASSES)
        .map(|p| query_pass(ctx, &engine, &nodes, dists, &mut lat, p as u64))
        .collect();
    let warm = &passes[1..];
    let sum = |f: fn(&crate::batch::Pass) -> f64| warm.iter().map(f).sum::<f64>();
    let n = nodes.len() as f64;
    let l = &mut report.layers;
    l.insert("frozen.columnize_s", columnize_s);
    l.insert("frozen.encode_write_s", write_s);
    l.insert(
        "frozen.bytes_per_entry",
        bytes as f64 / ads.total_entries() as f64,
    );
    l.insert("frozen.load_verify_ms", verify_s * 1e3);
    l.insert("frozen.load_trusted_ms", trusted_s * 1e3);
    l.insert("engine.first_sweep_s", passes[0].total_s);
    l.insert(
        "engine.warm_sweep_s",
        median(&warm.iter().map(|p| p.total_s).collect::<Vec<_>>()),
    );
    l.insert(
        "engine.harmonic_nodes_per_s",
        n * warm.len() as f64 / sum(|p| p.harmonic_s),
    );
    l.insert(
        "engine.cardinality_nodes_per_s",
        n * (dists.len() * warm.len()) as f64 / sum(|p| p.cardinality_s),
    );
    l.insert(
        "engine.nbhd_fn_nodes_per_s",
        sum(|p| p.nbhd_nodes) / sum(|p| p.nbhd_s),
    );
    drop(store);
    let _ = std::fs::remove_file(path);
}

/// `proto.*`, `engine.batch_us`, `serve.*`, `router.*`, `cache.*`: a
/// two-shard fleet over `ads` with the answer cache, fed
/// `SERVE_BATCHES` Zipf batches by one client.
pub fn serve_layers(ctx: &mut Ctx, ads: &AdsSet, report: &mut Report) {
    let dir = ctx.work.join("probe-fleet");
    adsketch_core::freeze_sharded_format(ads, 2, &dir, StoreFormat::V1).expect("freeze shards");
    let fleet = Fleet::start(&dir, CACHE_BYTES);
    let frozen = FrozenAdsSet::from_ads_set(ads);
    let tables = Tables::compute(&frozen);
    let local = QueryEngine::with_threads(&frozen, 1);
    let mut client = Client::connect(fleet.router).expect("connect router");
    let mut direct = Client::connect(fleet.backends[0]).expect("connect backend");
    let mut traffic = Traffic::new(ads.num_nodes(), ctx.seed_for(5));
    let mut ls = LayerSamples::default();
    let (h0, m0) = (fleet.cache.hits(), fleet.cache.misses());
    let (mut ph, mut pm) = (0, 0);
    for b in 0..SERVE_BATCHES {
        let req = traffic.next_request();
        let (_, ok) = serve_batch(ctx, &mut client, &req, &tables, &local, Some(&mut ls), b);
        report.correct &= ok;
        if b % 8 == 0 {
            let (dh, dm) = router_probe(ctx, &fleet, &mut client, &mut direct, b, &mut ls);
            ph += dh;
            pm += dm;
        }
    }
    ls.hits = fleet.cache.hits() - h0 - ph;
    ls.misses = fleet.cache.misses() - m0 - pm;
    ls.fill(&fleet.cache, report);
    drop(client);
    drop(direct);
    fleet.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// `dynamic.*`, `log.*`, `freezer.*`, `generation.*`: the first
/// `INGEST_ARCS` arcs of `g` in growth order (edges by their later
/// endpoint, which is arrival order for Barabási–Albert graphs and a
/// row-major sweep for grids; both arcs of an edge back to back) streamed
/// into an empty graph of the same size, publishing `INGEST_GENERATIONS`
/// generations to a live server.
pub fn ingest_layers(ctx: &mut Ctx, g: &Graph, rank_seed: u64, report: &mut Report) {
    let mut arcs: Vec<(NodeId, NodeId, f64)> = (0..g.num_nodes() as NodeId)
        .flat_map(|u| g.arcs(u).map(move |(v, w)| (u, v, w)))
        .collect();
    arcs.sort_by_key(|&(u, v, _)| (u.max(v), u.min(v), u));
    arcs.truncate(INGEST_ARCS);
    let dir = ctx.work.join("probe-ingest");
    let st = stream_round(
        ctx,
        &arcs,
        g.num_nodes(),
        rank_seed,
        INGEST_GENERATIONS,
        &dir,
        0,
    );
    round_layers(std::slice::from_ref(&st), report);
    replay_layers(
        ctx,
        &arcs,
        g.num_nodes(),
        rank_seed,
        INGEST_GENERATIONS,
        &dir,
        report,
    );
    let _ = std::fs::remove_dir_all(dir);
}
