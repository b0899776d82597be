//! The adsketch benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <batch_social|batch_road|serve_zipf|ingest_stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --workdir <dir> --trace-dir <dir>
//! ```
//!
//! Inputs are generated from `--seed`; the timed section lasts about
//! `--seconds`; correctness checks run outside it. A human-readable
//! report goes to stderr, and the last line of stdout is one JSON object
//! with `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Every flag is
//! required: `perfbench/run.py` builds this binary, drives it and is the
//! one place that sets the run length and directories; see
//! `perfbench/README.md`.

mod batch;
mod checks;
mod ingest;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::Tracer;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// Sketch parameter k of every workload.
pub const K: usize = 16;

/// Seed of the sketches' node ranks. It is a parameter of the sketch,
/// like a hash function's seed, and stays fixed: `--seed` varies the
/// graph, the query traffic and the edge stream. Drawing fresh ranks per
/// run moves the total sketch size (and with it every cost) by about 5%
/// between runs on the scale-free graphs, more than the bounds allow.
pub const RANK_SEED: u64 = 0x00AD_5EED;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory for stores and logs; removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    /// A seed for one named input stream, derived from the run's seed.
    pub fn seed_for(&self, tag: u64) -> u64 {
        use adsketch_util::Rng64;
        adsketch_util::SplitMix64::new(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64()
    }
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let parsed = (|| -> Result<_, String> {
        let need = |name: &str| arg(&args, name).ok_or(format!("{name} is required"));
        let workload = need("--workload")?;
        let seed: u64 = need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        let traced = match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        let workdir = PathBuf::from(need("--workdir")?);
        let trace_dir = PathBuf::from(need("--trace-dir")?);
        Ok((workload, seed, seconds, traced, workdir, trace_dir))
    })();
    let (workload, seed, seconds, traced, workdir, trace_dir) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = workdir.join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut ctx = Ctx {
        seed,
        seconds,
        tracer: Tracer::new(traced),
        work: work.clone(),
    };
    let report: Report = match workload.as_str() {
        "batch_social" => batch::run(&mut ctx, batch::Family::Social),
        "batch_road" => batch::run(&mut ctx, batch::Family::Road),
        "serve_zipf" => serve::run(&mut ctx),
        "ingest_stream" => ingest::run(&mut ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);

    for line in &report.notes {
        eprintln!("[{workload}] {line}");
    }
    if traced {
        let path = trace_dir.join(format!("{workload}-seed{seed}.jsonl"));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "[{workload}] {} spans written to {}",
                ctx.tracer.span_count(),
                path.display()
            ),
            Err(e) => eprintln!("[{workload}] could not write spans: {e}"),
        }
        eprintln!(
            "[{workload}] self time per span:\n{}",
            ctx.tracer.render_table()
        );
    }
    println!("{}", report.to_json(traced));
    ExitCode::SUCCESS
}
