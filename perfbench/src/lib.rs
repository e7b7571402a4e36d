//! `ccured-perfbench`: one benchmark for the whole ccured-rs path — cure,
//! run and serve, plain and with temporal checks — timed end to end and,
//! in a separate traced run, layer by layer.
//!
//! The benchmark drives the repository's crates from outside through
//! their public entry points (`ccured_ast::parse_translation_unit`,
//! `ccured::Curer`, `ccured_cil::pretty`, `ccured_rt::Interp`,
//! `ccured_batch::serve`) and never reaches into their internals. See
//! `README.md` next to this crate for the workloads, metrics and the
//! layer → end-to-end map.

mod check;
pub mod corpus;
mod cure;
mod host;
pub mod json;
pub mod outcome;
mod run;
mod scratch;
mod serve;
mod stats;
mod trace;
mod workload;

pub use workload::SERVE_ROUNDS;

use std::time::Duration;

/// The named workloads, in the order `BENCHMARK.json` lists them: every
/// phase plain, and every phase with `--temporal`.
pub const WORKLOADS: [&str; 2] = ["plain", "temporal"];

/// Everything one run of a workload is parameterized by.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run: record spans and report the per-layer metrics.
    pub trace: bool,
    /// Smoke size: a handful of small units, for the benchmark's own tests.
    pub smoke: bool,
}

/// Per-purpose seed derived from the run seed, so that synth units, edit
/// choices and request order are independent streams of one `--seed`.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    ccured_workloads::prng::SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .next_u64()
}

/// Runs one workload to completion.
///
/// # Errors
///
/// I/O failures (scratch directory, serve socket, trace file) and an
/// unknown workload name. A wrong program output is not an error: it is
/// reported through [`outcome::Outcome::correct`].
pub fn run_workload(cfg: &RunConfig) -> std::io::Result<outcome::Outcome> {
    let scratch = scratch::Scratch::create(std::path::Path::new(scratch::ROOT))?;
    let mut tracer = trace::Tracer::new(cfg.trace);
    let out = match cfg.workload.as_str() {
        "plain" => workload::run(cfg, &scratch, &mut tracer, false),
        "temporal" => workload::run(cfg, &scratch, &mut tracer, true),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload `{other}` (expected one of {WORKLOADS:?})"),
        )),
    }?;
    if cfg.trace {
        let path = trace::default_path(&cfg.workload, cfg.seed);
        tracer.write_jsonl(&path)?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            tracer.len(),
            path.display()
        );
    }
    scratch.remove()?;
    Ok(out)
}
