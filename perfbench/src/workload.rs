//! One run of a workload: the cure, run and serve phases are set up
//! together, then driven in whole rounds until the timed phase is over.
//!
//! A round is one pass of the cure corpus, one pass of the run corpus and
//! [`SERVE_ROUNDS`] serve rounds, in that order, so a burst from other
//! tenants lands on a few samples of every item of every phase rather than
//! on one phase, and every run attempts whole rounds of the same
//! operations. Round 0 warms up and is not counted.

use crate::host::{self, WaitMeter};
use crate::outcome::Outcome;
use crate::scratch::Scratch;
use crate::stats::median;
use crate::trace::{Fields, Tracer};
use crate::{cure, run, serve, RunConfig};
use std::io;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Serve rounds per round. A cure pass takes about 100 ms and a run pass
/// about 250 ms, a serve round about 33 ms; three serve rounds give the
/// serve latencies enough samples (over 1000 requests in a 40-second run,
/// so that 10 lie beyond the p99) without starving the other phases.
pub const SERVE_ROUNDS: usize = 3;

struct Phases {
    cure: cure::Phase,
    run: run::Phase,
    serve: serve::Phase,
}

/// One whole set-up; `None`, with the problem recorded, when a unit does
/// not cure.
fn setup(
    cfg: &RunConfig,
    scratch: &Scratch,
    n: usize,
    temporal: bool,
    out: &mut Outcome,
) -> io::Result<Option<Phases>> {
    let cure = cure::Phase::setup(cfg, scratch, n, temporal)?;
    let run = run::Phase::setup(cfg, scratch, n, temporal)?;
    let serve = serve::Phase::setup(cfg, scratch, n, temporal, out)?;
    match (cure, run, serve) {
        (Ok(cure), Ok(run), Ok(serve)) => Ok(Some(Phases { cure, run, serve })),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            out.problem(e);
            Ok(None)
        }
    }
}

/// Times one set-up and drops what it made (stopping its daemon).
fn timed_setup(
    cfg: &RunConfig,
    scratch: &Scratch,
    temporal: bool,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> io::Result<Option<Phases>> {
    let t = Instant::now();
    let phases = setup(cfg, scratch, setups.len(), temporal, out)?;
    setups.push(t.elapsed().as_secs_f64());
    Ok(phases)
}

/// Runs a workload; `temporal` cures, runs and serves with `--temporal`.
///
/// # Errors
///
/// Scratch-directory, unit-file, socket and `/proc` I/O.
pub fn run(
    cfg: &RunConfig,
    scratch: &Scratch,
    tracer: &mut Tracer,
    temporal: bool,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let Some(mut phases) = timed_setup(cfg, scratch, temporal, &mut setups, &mut out)? else {
        return Ok(out);
    };
    if !out.correct() {
        return Ok(out);
    }
    phases.cure.validate(&mut out);

    let mut meter = WaitMeter::start()?;
    let mut start = Instant::now();
    // Time spent in the set-ups made during the timed phase; the phase
    // runs for `--seconds` without it.
    let mut paused = Duration::ZERO;
    let mut round = 0usize;
    while round <= 1 || start.elapsed() - paused < cfg.seconds {
        let timed = round > 0;
        let span = tracer.reserve();
        let round_start = Instant::now();
        phases.cure.pass(timed, tracer, span, &mut out);
        phases.run.pass(timed, tracer, span, &mut out);
        for _ in 0..SERVE_ROUNDS {
            phases.serve.round(timed)?;
        }
        let wait = meter.pass()?;
        tracer.record(
            span,
            0,
            "round",
            round_start,
            Instant::now(),
            Fields::default()
                .with("round", round as f64)
                .with("runqueue_wait_ms", wait),
        );
        if round == 0 {
            start = Instant::now();
        }
        round += 1;
        // The other set-ups are spread evenly over the timed phase, so
        // that their median reads the host over the whole run and not in
        // its first seconds only. They run between rounds and are left
        // out of every other figure.
        let due = cfg.seconds.mul_f64(setups.len() as f64 / SETUPS as f64);
        if setups.len() < SETUPS && start.elapsed() - paused >= due {
            let t = Instant::now();
            timed_setup(cfg, scratch, temporal, &mut setups, &mut out)?;
            paused += t.elapsed();
            meter.skip()?;
        }
    }
    out.runqueue_wait_ms = meter.total_ms();
    while setups.len() < SETUPS {
        timed_setup(cfg, scratch, temporal, &mut setups, &mut out)?;
    }

    let Phases { cure, run, serve } = phases;
    let firsts = run.finish(&mut out);
    if tracer.enabled() {
        cure.per_layer(&mut out);
        if let Some(f) = &firsts {
            run.per_layer(f, &mut out);
        }
        serve.finish(tracer, &mut out)?;
        out.metric("host.runqueue_wait_ms", out.runqueue_wait_ms, "ms");
    } else {
        out.metric("setup_s", median(&setups), "s");
        cure.end_to_end(&mut out);
        if let Some(f) = &firsts {
            run.end_to_end(f, &mut out);
        }
        serve.finish(tracer, &mut out)?;
        out.metric("peak_rss_mb", host::peak_rss_mb()?, "MB");
    }
    Ok(out)
}
