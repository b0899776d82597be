//! Correctness checks computed apart from the code under test. None of
//! them is timed, and none compares against a stored copy of earlier
//! output: truth comes from exact shortest paths, the brute-force
//! reference builder, or the program's own in-memory sketches.

use adsketch_core::{centrality, reference, uniform_ranks, AdsSet, AdsView, QueryEngine};
use adsketch_graph::{exact, Graph, NodeId};
use adsketch_util::stats::cv_hip;

/// The HIP estimates on the node sample must have an NRMSE within this
/// multiple of `cv_hip(k)`, Theorem 5.1's bound on the coefficient of
/// variation of one estimate. The sample's estimates share one sketch
/// set, so their errors are correlated and the sample NRMSE scatters
/// around the bound from seed to seed: over 40 seeds per family the
/// largest was 1.93 × `cv_hip`. The multiple leaves about 30% room over
/// that and still fails an estimator that reads 50% high on every node
/// (NRMSE ≈ sqrt(0.5² + cv²) ≈ 2.9 × `cv_hip(16)`).
pub const NRMSE_MULTIPLE: f64 = 2.5;

fn entry_bits(view: &impl AdsView, v: NodeId) -> Vec<(NodeId, u64, u64)> {
    let mut out = Vec::new();
    view.for_each_entry(v, |e| {
        out.push((e.node, e.dist.to_bits(), e.rank.to_bits()))
    });
    out
}

fn hip_bits(view: &impl AdsView, v: NodeId) -> Vec<(NodeId, u64, u64)> {
    let mut out = Vec::new();
    view.for_each_hip(v, |h| {
        out.push((h.node, h.dist.to_bits(), h.weight.to_bits()))
    });
    out
}

/// Every node's entries and HIP weights in `view` equal those of `ads`,
/// bit for bit.
pub fn same_sketches(view: &impl AdsView, ads: &AdsSet) -> Result<(), String> {
    if view.num_nodes() != ads.num_nodes() || view.k() != ads.k() {
        return Err(format!(
            "shape differs: {} nodes k={} vs {} nodes k={}",
            view.num_nodes(),
            view.k(),
            ads.num_nodes(),
            ads.k()
        ));
    }
    for v in 0..ads.num_nodes() as NodeId {
        if entry_bits(view, v) != entry_bits(ads, v) {
            return Err(format!("entries of node {v} differ"));
        }
        if hip_bits(view, v) != hip_bits(ads, v) {
            return Err(format!("HIP weights of node {v} differ"));
        }
    }
    Ok(())
}

/// Check (b): the production builder equals the brute-force reference
/// builder bitwise on `g`.
pub fn builder_matches_reference(g: &Graph, k: usize, seed: u64) -> Result<(), String> {
    let built = AdsSet::build(g, k, seed);
    let brute = reference::build_bottomk(g, k, &uniform_ranks(g.num_nodes(), seed));
    same_sketches(&built, &brute)
}

/// Check (c): the loaded store's engine answers equal the estimators
/// evaluated on the in-memory sketches, bit for bit, for every node.
pub fn store_answers_match_hip<V: AdsView + Sync>(
    store: &V,
    ads: &AdsSet,
    dists: &[f64],
) -> Result<(), String> {
    let engine = QueryEngine::with_threads(store, 1);
    let harmonic = engine.harmonic_all();
    let n = ads.num_nodes();
    let mut cards = Vec::with_capacity(dists.len());
    for &d in dists {
        let queries: Vec<(NodeId, f64)> = (0..n as NodeId).map(|v| (v, d)).collect();
        cards.push(engine.cardinality_batch(&queries));
    }
    for v in 0..n {
        let hip = ads.hip(v as NodeId);
        if harmonic[v].to_bits() != centrality::harmonic(&hip).to_bits() {
            return Err(format!("harmonic of node {v} differs"));
        }
        for (i, &d) in dists.iter().enumerate() {
            if cards[i][v].to_bits() != hip.cardinality_at(d).to_bits() {
                return Err(format!("cardinality of node {v} at d={d} differs"));
            }
        }
    }
    Ok(())
}

/// Check (a): NRMSE of the store's harmonic and cardinality estimates on
/// `sample` against exact shortest-path truth. Returns
/// `(harmonic_nrmse, cardinality_nrmse, bound)`.
pub fn nrmse_against_exact<V: AdsView + Sync>(
    g: &Graph,
    store: &V,
    sample: &[NodeId],
    dists: &[f64],
) -> (f64, f64, f64) {
    let engine = QueryEngine::with_threads(store, 1);
    let est_h = engine.harmonic_batch(sample);
    let (mut se_h, mut se_c, mut n_c) = (0.0, 0.0, 0usize);
    for (i, &v) in sample.iter().enumerate() {
        let nf = exact::neighborhood_function(g, v);
        let truth_h = exact::harmonic_centrality(g, v);
        if truth_h > 0.0 {
            se_h += (est_h[i] / truth_h - 1.0).powi(2);
        }
        for &d in dists {
            let truth = nf.cardinality_at(d) as f64;
            let est = engine.cardinality_batch(&[(v, d)])[0];
            se_c += (est / truth - 1.0).powi(2);
            n_c += 1;
        }
    }
    let nrmse_h = (se_h / sample.len() as f64).sqrt();
    let nrmse_c = (se_c / n_c.max(1) as f64).sqrt();
    (nrmse_h, nrmse_c, NRMSE_MULTIPLE * cv_hip(store.k()))
}
