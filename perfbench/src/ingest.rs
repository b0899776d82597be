//! `ingest_stream`: edges stream into an empty graph while a live server
//! hot-swaps each published generation under one querying client.
//!
//! The stream is a Barabási–Albert graph's edges in growth (arrival)
//! order, both arcs of each edge back to back. A round streams the whole
//! graph through `Ingestor::ingest`; every `len / GENERATIONS` arcs,
//! `Freezer::freeze` publishes a generation, which is loaded and swapped
//! into a `GenerationStore`-backed `Server`. A client thread polls
//! `GenInfo` and queries between polls. Freshness is the time from the
//! last arc of a generation being ingested to the client seeing that
//! generation. Rounds repeat until the time is up. After each round,
//! untimed, the last generation is compared bitwise with a
//! from-scratch build of the final graph.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adsketch_core::builder::pruned_dijkstra;
use adsketch_core::{uniform_ranks, DynamicAds, LoadOptions, QueryEngine, StoreFormat};
use adsketch_graph::{generators, Graph, NodeId};
use adsketch_ingest::{current_generation, EdgeLog, Freezer, Ingestor};
use adsketch_serve::{Client, GenerationStore, Server, ShardedStore};
use adsketch_util::{Rng64, SplitMix64};

use crate::report::Report;
use crate::stats::{disk_bytes, heap_peak_mb, median, quantile};
use crate::{checks, probe, Ctx, K, RANK_SEED};

const N: usize = 2_500;
const BA_M: usize = 4;
/// Generations published per pass over the stream.
const GENERATIONS: usize = 32;
/// Set-up generates the stream in timed blocks of `SETUP_PER_BLOCK`:
/// `SETUP_BLOCKS` before the timed section and one more after each pass,
/// so the blocks sample the host across the whole run. `setup_s` is the
/// median block time over its block size. One generation takes about
/// 2 ms, too short to time steadily on its own; a block takes about 60 ms.
const SETUP_BLOCKS: usize = 3;
const SETUP_PER_BLOCK: usize = 30;
/// Edge-log segment size in records.
const SEGMENT_CAP: u64 = 1 << 16;
/// Pause between the querying client's polls.
const CLIENT_PAUSE: Duration = Duration::from_micros(500);
/// Nodes per client query batch.
const CLIENT_BATCH: usize = 64;
/// Longest wait for the client to see a swapped generation.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(10);

/// An arc stream: `(u, v, w)` in arrival order.
pub type Arcs = Vec<(NodeId, NodeId, f64)>;

/// Both arcs of every edge, in the order the edges arrive.
pub fn growth_order_arcs(edges: &[(NodeId, NodeId)]) -> Arcs {
    edges
        .iter()
        .flat_map(|&(u, v)| [(u, v, 1.0), (v, u, 1.0)])
        .collect()
}

/// Measurements of one pass over the stream.
#[derive(Default)]
pub struct RoundStats {
    pub arcs: usize,
    pub ingest_s: f64,
    pub round_s: f64,
    pub freeze_s: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub swap_us: Vec<f64>,
    pub visible_ms: Vec<f64>,
    pub freshness_ms: Vec<f64>,
    pub queries: u64,
    pub regressions: u64,
    pub last_generation: u64,
    pub store_bytes: u64,
}

/// What the client thread reports: a generation and when it first saw it.
type Seen = (u64, Instant);

fn wait_visible(rx: &Receiver<Seen>, generation: u64) -> Instant {
    let deadline = Instant::now() + VISIBLE_DEADLINE;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((g, at)) if g >= generation => return at,
            Ok(_) => {}
            Err(e) => panic!("generation {generation} never became visible: {e}"),
        }
    }
}

/// Streams `arcs` from an empty `n`-node graph through a fresh ingest
/// pipeline in `dir`, publishing `gens` generations into a live server.
pub fn stream_round(
    ctx: &mut Ctx,
    arcs: &[(NodeId, NodeId, f64)],
    n: usize,
    rank_seed: u64,
    gens: usize,
    dir: &Path,
    r: u64,
) -> RoundStats {
    let mut st = RoundStats {
        arcs: arcs.len(),
        ..RoundStats::default()
    };
    let ingestor = Mutex::new(
        Ingestor::open(dir.join("log"), n, K, rank_seed, SEGMENT_CAP).expect("open ingestor"),
    );
    let store_root = dir.join("store");
    let mut freezer = Freezer::new(&store_root, 1, StoreFormat::V1).expect("freezer");
    let chunk = arcs.len().div_ceil(gens);
    let stop = Arc::new(AtomicBool::new(false));
    let mut live: Option<(
        Arc<GenerationStore<ShardedStore>>,
        adsketch_serve::ServerHandle,
    )> = None;
    let mut server_join = None;
    let mut client_join = None;
    let (tx, rx) = channel::<Seen>();
    let mut client_seed = SplitMix64::new(ctx.seed_for(6) ^ r);
    let round = ctx.tracer.begin("round", r);
    for (gi, part) in arcs.chunks(chunk).enumerate() {
        let (_, dt) = ctx.tracer.time("ingest.chunk", r, || {
            let mut ing = ingestor.lock().expect("ingestor lock");
            for &(u, v, w) in part {
                ing.ingest(u, v, w).expect("ingest arc");
            }
        });
        st.ingest_s += dt;
        let last_arc = Instant::now();
        let (frozen, f) = ctx.tracer.time("freezer.freeze", r, || {
            freezer.freeze(&ingestor).expect("freeze")
        });
        st.freeze_s.push(f);
        let cold = ctx.tracer.begin("generation.cold_start", r);
        let (store, l) = ctx.tracer.time("generation.load", r, || {
            ShardedStore::load_with(&frozen.dir, LoadOptions::mapped()).expect("load generation")
        });
        let first = QueryEngine::with_threads(&store, 1).harmonic_batch(&[0]);
        assert_eq!(first.len(), 1);
        st.cold_ms.push(ctx.tracer.end(cold) * 1e3);
        st.load_ms.push(l * 1e3);
        st.last_generation = frozen.generation;
        st.store_bytes = disk_bytes(&frozen.dir);
        if let Some((gs, _)) = &live {
            let (old, s) = ctx
                .tracer
                .time("generation.swap", r, || gs.swap(store, frozen.generation));
            let swapped = Instant::now();
            assert_eq!(old + 1, frozen.generation, "generations swap in order");
            st.swap_us.push(s * 1e6);
            let open = ctx.tracer.begin("generation.visible", r);
            let seen = wait_visible(&rx, frozen.generation);
            ctx.tracer.end(open);
            st.visible_ms
                .push(seen.saturating_duration_since(swapped).as_secs_f64() * 1e3);
            st.freshness_ms
                .push(seen.saturating_duration_since(last_arc).as_secs_f64() * 1e3);
            continue;
        }
        // First generation: bring the server up and start the client.
        debug_assert_eq!(gi, 0);
        let gs = Arc::new(GenerationStore::new(store, frozen.generation));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&gs), 1).expect("bind server");
        let addr = server.local_addr().expect("server addr");
        live = Some((gs, server.handle()));
        server_join = Some(std::thread::spawn(move || server.run()));
        let (stop, tx) = (Arc::clone(&stop), tx.clone());
        let mut rng = SplitMix64::new(client_seed.next_u64());
        client_join = Some(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let (mut last, mut queries, mut regressions) = (0u64, 0u64, 0u64);
            while !stop.load(Ordering::SeqCst) {
                let g = client.gen_info().expect("gen info");
                let at = Instant::now();
                if g < last {
                    regressions += 1;
                }
                if g > last {
                    last = g;
                    let _ = tx.send((g, at));
                }
                let nodes: Vec<NodeId> = (0..CLIENT_BATCH)
                    .map(|_| (rng.next_u64() % n as u64) as NodeId)
                    .collect();
                let answers = client.harmonic(&nodes).expect("query live server");
                assert_eq!(answers.len(), nodes.len());
                queries += 1;
                std::thread::sleep(CLIENT_PAUSE);
            }
            (queries, regressions)
        }));
        wait_visible(&rx, frozen.generation);
    }
    st.round_s = ctx.tracer.end(round);
    stop.store(true, Ordering::SeqCst);
    let (gs, handle) = live.expect("at least one generation");
    let client = client_join.expect("client thread").join().expect("client");
    handle.shutdown();
    server_join
        .expect("server thread")
        .join()
        .expect("server thread")
        .expect("server run");
    drop(gs);
    st.queries = client.0;
    st.regressions = client.1;
    st
}

/// Replays `arcs` through a standalone `DynamicAds` (timing every
/// `insert_edge`, and a snapshot at each generation boundary) and a
/// standalone `EdgeLog` in `dir`, and fills the `dynamic.*`, `log.*`
/// and `freezer.snapshot_s` metrics.
pub fn replay_layers(
    ctx: &mut Ctx,
    arcs: &[(NodeId, NodeId, f64)],
    n: usize,
    rank_seed: u64,
    gens: usize,
    dir: &Path,
    report: &mut Report,
) {
    let chunk = arcs.len().div_ceil(gens);
    let mut ads = DynamicAds::new(n, K, rank_seed);
    let mut insert_s = 0.0;
    let mut snapshot_s = Vec::new();
    for (i, part) in arcs.chunks(chunk).enumerate() {
        let (_, dt) = ctx.tracer.time("dynamic.insert_chunk", i as u64, || {
            for &(u, v, w) in part {
                ads.insert_edge(u, v, w).expect("insert arc");
            }
        });
        insert_s += dt;
        snapshot_s.push(
            ctx.tracer
                .time("freezer.snapshot", i as u64, || ads.snapshot())
                .1,
        );
    }
    let stats = *ads.stats();
    let log_dir = dir.join("replay-log");
    let (mut log, recovered) = EdgeLog::open(&log_dir, SEGMENT_CAP).expect("open log");
    assert!(
        recovered.is_empty(),
        "a fresh log directory replays nothing"
    );
    let (_, append_s) = ctx.tracer.time("log.append_all", 0, || {
        for part in arcs.chunks(chunk) {
            for &(u, v, w) in part {
                log.append(u, v, w).expect("append");
            }
            log.flush().expect("flush");
        }
    });
    let per_arc = 1e6 / arcs.len() as f64;
    let l = &mut report.layers;
    l.insert("dynamic.insert_us_per_edge", insert_s * per_arc);
    l.insert("dynamic.relaxations", stats.relaxations as f64);
    l.insert("dynamic.insertions", stats.insertions as f64);
    l.insert("dynamic.removals", stats.removals as f64);
    l.insert("dynamic.rounds", stats.rounds as f64);
    l.insert("log.append_us_per_edge", append_s * per_arc);
    l.insert("log.bytes", disk_bytes(&log_dir) as f64);
    l.insert("freezer.snapshot_s", median(&snapshot_s));
    drop(log);
    let _ = std::fs::remove_dir_all(log_dir);
}

/// Fills the `freezer.freeze_s` and `generation.*` metrics from rounds.
pub fn round_layers(rounds: &[RoundStats], report: &mut Report) {
    let all = |f: fn(&RoundStats) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let l = &mut report.layers;
    l.insert("freezer.freeze_s", median(&all(|r| &r.freeze_s)));
    l.insert("generation.load_ms", median(&all(|r| &r.load_ms)));
    l.insert("generation.swap_us", median(&all(|r| &r.swap_us)));
    l.insert("generation.visible_ms", median(&all(|r| &r.visible_ms)));
}

/// One timed set-up block: the edge stream and the final graph generated
/// `SETUP_PER_BLOCK` times. Pushes the block's time per generation to
/// `setup` and each generator call's time to `generate`, and returns the
/// last stream and graph.
fn setup_block(
    ctx: &mut Ctx,
    graph_seed: u64,
    block: usize,
    setup: &mut Vec<f64>,
    generate: &mut Vec<f64>,
) -> (Arcs, Graph) {
    let t0 = Instant::now();
    let mut last = None;
    for i in 0..SETUP_PER_BLOCK {
        let r = (block * SETUP_PER_BLOCK + i) as u64;
        let (edges, dt) = ctx.tracer.time("graph.generate", r, || {
            generators::barabasi_albert_edges(N, BA_M, graph_seed)
        });
        let arcs = growth_order_arcs(&edges);
        let g = Graph::undirected(N, &edges).expect("valid ids");
        generate.push(dt);
        last = Some((arcs, g));
    }
    setup.push(t0.elapsed().as_secs_f64() / SETUP_PER_BLOCK as f64);
    last.expect("a block generates at least once")
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::new();
    let traced = ctx.tracer.enabled();
    let graph_seed = ctx.seed_for(1);
    let rank_seed = RANK_SEED;

    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut input = None;
    for b in 0..SETUP_BLOCKS {
        input = Some(setup_block(ctx, graph_seed, b, &mut setup, &mut generate));
    }
    let (arcs, g) = input.expect("one set-up");
    report.note(format!(
        "BA n={N} m={BA_M} k={K}: {} arcs in growth order, {GENERATIONS} generations per pass, 1 client, seed {}",
        arcs.len(),
        ctx.seed
    ));

    let mut rounds = Vec::new();
    let mut build_s = Vec::new();
    let mut round_s = [Vec::new(), Vec::new()];
    let mut bstats = None;
    let mut oracle = None;
    let started = Instant::now();
    // Peak heap through set-up and the first round: later rounds repeat
    // the same work.
    let mut peak_heap = 0.0;
    let mut r = 0u64;
    while r == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        let span_on = traced && r.is_multiple_of(2);
        ctx.tracer.set_enabled(span_on);
        let dir = ctx.work.join(format!("round-{r}"));
        let st = stream_round(ctx, &arcs, N, rank_seed, GENERATIONS, &dir, r);
        round_s[usize::from(span_on)].push(st.round_s);
        ctx.tracer.set_enabled(traced);

        // Check (e), untimed for the stream: the last generation equals a
        // from-scratch build of the final graph, and the client never saw
        // the served generation go backwards.
        let ranks = uniform_ranks(N, rank_seed);
        let ((ads, stats), b) = ctx.tracer.time("builder.build", r, || {
            pruned_dijkstra::build_with_stats(&g, K, &ranks).expect("valid ranks")
        });
        build_s.push(b);
        let (generation, gen_dir) = current_generation(dir.join("store"))
            .expect("read CURRENT")
            .expect("a published generation");
        let published = ShardedStore::load_with(&gen_dir, LoadOptions::mapped()).expect("load");
        let same = checks::same_sketches(&published, &ads);
        report.check(
            "e.last_generation_equals_rebuild",
            same.is_ok() && generation == st.last_generation,
            format!(
                "round {r}, generation {generation} {}",
                same.err().unwrap_or_default()
            ),
        );
        report.check(
            "e.generations_never_go_backwards",
            st.regressions == 0,
            format!(
                "round {r}: {} client queries, {} regressions",
                st.queries, st.regressions
            ),
        );
        drop(published);
        let _ = std::fs::remove_dir_all(&dir);
        bstats = Some(stats);
        oracle = Some(ads);
        if r == 0 {
            peak_heap = heap_peak_mb();
        }
        rounds.push(st);
        // One more set-up block, outside every other measurement.
        drop(setup_block(
            ctx,
            graph_seed,
            SETUP_BLOCKS + r as usize,
            &mut setup,
            &mut generate,
        ));
        r += 1;
    }
    let all = |f: fn(&RoundStats) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let rates: Vec<f64> = rounds.iter().map(|s| s.arcs as f64 / s.ingest_s).collect();
    let freshness = all(|r| &r.freshness_ms);
    report.attempted = rounds.iter().map(|s| s.arcs as u64 + s.queries).sum();
    report.note(format!(
        "{r} passes, {} freshness samples, {} client queries",
        freshness.len(),
        rounds.iter().map(|s| s.queries).sum::<u64>()
    ));
    report.note(format!("set-up s per generation, by block: {setup:.5?}"));

    let e = &mut report.e2e;
    e.insert("setup_s", median(&setup));
    e.insert("build_s", median(&build_s));
    e.insert("freeze_s", median(&all(|r| &r.freeze_s)));
    e.insert("cold_start_ms", median(&all(|r| &r.cold_ms)));
    e.insert(
        "store_bytes",
        rounds.last().map_or(0, |s| s.store_bytes) as f64,
    );
    e.insert("throughput_per_s", median(&rates));
    e.insert("latency_p50_ms", median(&freshness));
    e.insert("latency_tail_ms", quantile(&freshness, 0.9));

    if traced {
        let ads = oracle.expect("one round");
        let stats = bstats.expect("one round");
        round_layers(&rounds, &mut report);
        let dir = ctx.work.join("replay");
        replay_layers(ctx, &arcs, N, rank_seed, GENERATIONS, &dir, &mut report);
        let l = &mut report.layers;
        l.insert("graph.generate_s", median(&generate));
        l.insert("builder.build_s", median(&build_s));
        l.insert("builder.relaxations", stats.relaxations as f64);
        l.insert("builder.heap_pushes", stats.heap_pushes as f64);
        l.insert("builder.pruned_at_relax", stats.pruned_at_relax as f64);
        l.insert("builder.entries", ads.total_entries() as f64);
        l.insert("trace.overhead_pct", crate::batch::overhead_pct(&round_s));
        probe::store_layers(ctx, &ads, StoreFormat::V1, &[2.0, 3.0, 4.0], &mut report);
        probe::serve_layers(ctx, &ads, &mut report);
    }
    report.e2e.insert("peak_heap_mb", peak_heap);
    report
}
