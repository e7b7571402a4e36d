//! The cure phase: cures every unit of a mixed corpus from source to
//! printed cured text, round-robin, and executes nothing while timed.

use crate::corpus;
use crate::outcome::Outcome;
use crate::scratch::Scratch;
use crate::stats::{fastest, fastests, geomean};
use crate::trace::{Fields, SpanId, Tracer};
use crate::{check, RunConfig};
use ccured::{Curer, FnCache};
use ccured_cil::pretty::dump_program;
use ccured_workloads::Workload;
use std::io;
use std::time::Instant;

struct Unit {
    w: Workload,
    curer: Curer,
    /// The reference cure's printed text.
    text: String,
    /// The reference cure (sizes for the per-layer counts).
    cured: ccured::Cured,
}

/// Set-up: generate and write the corpus, then make one reference cure
/// and print of every unit.
fn setup(
    cfg: &RunConfig,
    scratch: &Scratch,
    round: usize,
    temporal: bool,
) -> io::Result<Result<Vec<Unit>, String>> {
    let dir = scratch.sub(&format!("cure{round}"))?;
    let corpus = corpus::write_and_reload(&dir, corpus::cure_corpus(cfg.seed, cfg.smoke))?;
    Ok(corpus
        .into_iter()
        .map(|w| {
            let curer = corpus::curer_for(&w, temporal);
            let cured = curer
                .cure_source(&w.source)
                .map_err(|e| format!("{}: reference cure failed: {e}", w.name))?;
            let text = dump_program(&cured.program);
            Ok(Unit {
                w,
                curer,
                text,
                cured,
            })
        })
        .collect())
}

/// Checks outside the timed region: the incremental cure from an empty
/// function cache prints the reference text, and every synth unit runs
/// to exit 0 (its checksum matches the generator's) both cured and
/// uncured.
fn validate(units: &[Unit], out: &mut Outcome) {
    for u in units {
        match u
            .curer
            .cure_source_incremental(&u.w.source, &mut FnCache::new())
        {
            Ok(incr) => {
                if let Err(e) = check::same_text(&u.w.name, "incremental cure", &u.text, &incr.text)
                {
                    out.problem(e);
                }
            }
            Err(e) => out.problem(format!("{}: incremental cure failed: {e}", u.w.name)),
        }
        if u.w.name.starts_with("synth_") {
            let cured = crate::run::exec_cured(&u.cured, &u.w.input, ccured_rt::Engine::Vm, None);
            let verdict = match corpus::lower_original(&u.w) {
                Ok(p) => {
                    let orig = crate::run::exec_original(&p, &u.w.input);
                    check::run_matches(
                        &u.w.name,
                        (&cured.exit, &cured.out),
                        (&orig.exit, &orig.out),
                        u.w.expect_exit,
                    )
                }
                Err(e) => Err(e),
            };
            if let Err(e) = verdict {
                out.problem(e);
            }
        }
    }
}

/// The cure phase of a workload: the corpus and the samples its timed
/// passes have taken.
pub struct Phase {
    units: Vec<Unit>,
    src_kb: f64,
    per_unit: Vec<Vec<f64>>,
    /// Per-pass totals of each cure layer, in ms (traced runs only).
    stage: [Vec<f64>; 6],
    prelude_ms: Vec<f64>,
}

impl Phase {
    /// Set-up: generate and write the corpus, then make one reference
    /// cure and print of every unit; `temporal` cures with `--temporal`.
    ///
    /// # Errors
    ///
    /// Scratch-directory I/O; a unit that does not cure is the inner
    /// error.
    pub fn setup(
        cfg: &RunConfig,
        scratch: &Scratch,
        round: usize,
        temporal: bool,
    ) -> io::Result<Result<Phase, String>> {
        Ok(setup(cfg, scratch, round, temporal)?.map(|units| {
            let n = units.len();
            Phase {
                src_kb: units.iter().map(|u| u.w.source.len() as f64).sum::<f64>() / 1024.0,
                units,
                per_unit: vec![Vec::new(); n],
                stage: Default::default(),
                prelude_ms: Vec::new(),
            }
        }))
    }

    /// The checks made once, outside the timed region.
    pub fn validate(&self, out: &mut Outcome) {
        validate(&self.units, out);
    }

    /// One pass over the corpus, round-robin; `timed` passes count.
    pub fn pass(&mut self, timed: bool, tracer: &mut Tracer, parent: SpanId, out: &mut Outcome) {
        let pass_span = tracer.reserve();
        let pass_start = Instant::now();
        if tracer.enabled() {
            let t = Instant::now();
            let parsed =
                ccured_ast::parse_translation_unit(ccured::wrappers::stdlib_wrapper_source());
            let e = Instant::now();
            if parsed.is_err() {
                out.problem("the stdlib wrapper prelude does not parse");
            }
            tracer.leaf(pass_span, "ast.prelude_parse", t, e, Fields::default());
            if timed {
                self.prelude_ms.push((e - t).as_secs_f64() * 1e3);
            }
        }
        let mut totals = [0.0f64; 6];
        for (i, u) in self.units.iter().enumerate() {
            let t0 = Instant::now();
            let cured = u.curer.cure_source(&u.w.source);
            let tc = Instant::now();
            let cured = match cured {
                Ok(c) => c,
                Err(e) => {
                    if timed {
                        out.attempted += 1;
                        out.failed += 1;
                    }
                    eprintln!("perfbench: {}: cure failed: {e}", u.w.name);
                    continue;
                }
            };
            let text = dump_program(&cured.program);
            let t1 = Instant::now();
            if let Err(e) = check::same_text(&u.w.name, "second cure", &u.text, &text) {
                out.problem(e);
            }
            if timed {
                out.attempted += 1;
                self.per_unit[i].push((t1 - t0).as_secs_f64() * 1e3);
                let t = &cured.timings;
                for (k, d) in [t.parse, t.lower, t.infer, t.instrument, t.optimize, t1 - tc]
                    .into_iter()
                    .enumerate()
                {
                    totals[k] += d.as_secs_f64() * 1e3;
                }
            }
            if tracer.enabled() {
                let unit_span = tracer.reserve();
                let cure_span = tracer.leaf(
                    unit_span,
                    "core.cure_source",
                    t0,
                    tc,
                    Fields::item(&u.w.name),
                );
                tracer.stages(cure_span, t0, &cured.timings);
                tracer.leaf(unit_span, "cil.print", tc, t1, Fields::item(&u.w.name));
                tracer.record(
                    unit_span,
                    pass_span,
                    "cure.unit",
                    t0,
                    t1,
                    Fields::item(&u.w.name),
                );
            }
        }
        tracer.record(
            pass_span,
            parent,
            "cure.pass",
            pass_start,
            Instant::now(),
            Fields::default(),
        );
        if timed {
            for (k, v) in totals.into_iter().enumerate() {
                self.stage[k].push(v);
            }
        }
    }

    /// `cure_kb_per_s` (a whole pass of the corpus, each unit at its
    /// fastest) and `cure_ms_geomean`.
    fn speeds(&self) -> (f64, f64) {
        let unit_times = fastests(&self.per_unit);
        (
            self.src_kb / (unit_times.iter().sum::<f64>() / 1e3),
            geomean(&unit_times),
        )
    }

    /// The end-to-end metrics of the phase.
    pub fn end_to_end(&self, out: &mut Outcome) {
        let (kb_per_s, ms_geomean) = self.speeds();
        let static_checks: u64 = self
            .units
            .iter()
            .map(|u| corpus::count_instrs(&u.cured.program).1)
            .sum();
        out.metric("cure_kb_per_s", kb_per_s, "KB/s");
        out.metric("cure_ms_geomean", ms_geomean, "ms");
        out.metric("static_checks", static_checks as f64, "count");
    }

    /// The per-layer metrics of the phase.
    pub fn per_layer(&self, out: &mut Outcome) {
        let (kb_per_s, ms_geomean) = self.speeds();
        out.notes.push(format!(
            "traced end-to-end: cure_kb_per_s={kb_per_s} cure_ms_geomean={ms_geomean}"
        ));
        for (k, name) in [
            "ast.parse_ms",
            "cil.lower_ms",
            "infer.infer_ms",
            "core.instrument_ms",
            "analysis.optimize_ms",
            "cil.print_ms",
        ]
        .into_iter()
        .enumerate()
        {
            out.metric(name, fastest(&self.stage[k]), "ms");
        }
        out.metric("ast.prelude_parse_ms", fastest(&self.prelude_ms), "ms");
        cure_sizes(self.units.iter().map(|u| (&u.cured, u.text.len())), out);
    }
}

/// The per-layer cure sizes, summed over a corpus of `(cure, printed
/// length)` pairs.
pub fn cure_sizes<'a>(cures: impl Iterator<Item = (&'a ccured::Cured, usize)>, out: &mut Outcome) {
    let mut s = [0.0f64; 8];
    for (c, text_len) in cures {
        let r = &c.report;
        s[0] += corpus::count_instrs(&c.program).0 as f64;
        s[1] += r.solver_iterations as f64;
        s[2] += r.kind_counts.wild as f64;
        s[3] += r.checks_inserted.total() as f64;
        s[4] += r.checks_elided.total() as f64;
        s[5] += r.checks_hoisted as f64;
        s[6] += r.checks_widened as f64;
        s[7] += text_len as f64 / 1024.0;
    }
    for (k, (name, unit)) in [
        ("cil.ir_instrs", "count"),
        ("infer.solver_iterations", "count"),
        ("infer.wild_quals", "count"),
        ("core.checks_inserted", "count"),
        ("analysis.checks_elided", "count"),
        ("analysis.checks_hoisted", "count"),
        ("analysis.checks_widened", "count"),
        ("cil.cured_kb", "KB"),
    ]
    .into_iter()
    .enumerate()
    {
        out.metric(name, s[k], unit);
    }
}
