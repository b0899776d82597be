//! The metric catalogue and the result every workload hands back.
//!
//! Every workload reports every end-to-end metric and every per-layer
//! metric; `BENCHMARK.json` lists the same names and units, and the
//! runner refuses output whose names differ from it.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). What each one measures on each
/// workload is tabulated in the benchmark's README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("freeze_s", "s"),
    ("cold_start_ms", "ms"),
    ("store_bytes", "B"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("builder.build_s", "s"),
    ("builder.relaxations", "count"),
    ("builder.heap_pushes", "count"),
    ("builder.pruned_at_relax", "count"),
    ("builder.entries", "count"),
    ("frozen.columnize_s", "s"),
    ("frozen.encode_write_s", "s"),
    ("frozen.bytes_per_entry", "B"),
    ("frozen.load_verify_ms", "ms"),
    ("frozen.load_trusted_ms", "ms"),
    ("engine.first_sweep_s", "s"),
    ("engine.warm_sweep_s", "s"),
    ("engine.harmonic_nodes_per_s", "1/s"),
    ("engine.cardinality_nodes_per_s", "1/s"),
    ("engine.nbhd_fn_nodes_per_s", "1/s"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("engine.batch_us", "us"),
    ("serve.wire_queue_us", "us"),
    ("router.overhead_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.resident_bytes", "B"),
    ("dynamic.insert_us_per_edge", "us"),
    ("dynamic.relaxations", "count"),
    ("dynamic.insertions", "count"),
    ("dynamic.removals", "count"),
    ("dynamic.rounds", "count"),
    ("log.append_us_per_edge", "us"),
    ("log.bytes", "B"),
    ("freezer.snapshot_s", "s"),
    ("freezer.freeze_s", "s"),
    ("generation.load_ms", "ms"),
    ("generation.swap_us", "us"),
    ("generation.visible_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed (on the operations that did not fail).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines for the log (check results, sizes, notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.notes.push(format!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Renders the result line: `correct`, `attempted`, `failed` and the
    /// end-to-end or the per-layer metrics. Panics if the workload left
    /// a catalogued metric out or produced one that is not catalogued.
    pub fn to_json(&self, traced: bool) -> String {
        let (catalogue, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let mut names: Vec<&str> = values.keys().copied().collect();
        names.sort_unstable();
        let mut want: Vec<&str> = catalogue.iter().map(|&(n, _)| n).collect();
        want.sort_unstable();
        assert_eq!(names, want, "workload metrics differ from the catalogue");
        let body: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = values[name];
                assert!(v.is_finite(), "metric {name} is not a finite number: {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
