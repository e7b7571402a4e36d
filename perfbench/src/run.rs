//! The run phase: cure the programs during set-up, then execute the cured
//! programs on the VM, round-robin.

use crate::corpus;
use crate::outcome::Outcome;
use crate::scratch::Scratch;
use crate::stats::{fastests, geomean};
use crate::trace::{Fields, SpanId, Tracer};
use crate::{check, RunConfig};
use ccured_rt::{CostModel, Counters, Engine, ExecMode, Interp, TierMode, TierStats};
use ccured_workloads::Workload;
use std::io;
use std::time::{Duration, Instant};

/// What one execution produced.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Exit code, or the run-time error as text.
    pub exit: Result<i64, String>,
    /// Program output.
    pub out: Vec<u8>,
    /// Event counters.
    pub counters: Counters,
    /// VM tiering activity.
    pub tier: TierStats,
    /// Wall-clock from interpreter creation (which compiles the bytecode)
    /// to the end of the run.
    pub elapsed: Duration,
}

fn exec(
    prog: &ccured_cil::Program,
    mode: ExecMode<'_>,
    temporal: bool,
    engine: Engine,
    tier: Option<TierMode>,
    input: &[u8],
) -> Exec {
    let input = input.to_vec();
    let t0 = Instant::now();
    let mut interp = Interp::new(prog, mode);
    interp.set_engine(engine);
    if let Some(t) = tier {
        interp.set_tiering(t);
    }
    interp.set_temporal(temporal);
    interp.set_input(input);
    let exit = interp.run().map_err(|e| e.to_string());
    let elapsed = t0.elapsed();
    Exec {
        exit,
        out: interp.output().to_vec(),
        counters: interp.counters,
        tier: interp.tier_stats(),
        elapsed,
    }
}

/// Executes a cure on `engine`; `tier` overrides the VM's default tiering.
pub fn exec_cured(c: &ccured::Cured, input: &[u8], engine: Engine, tier: Option<TierMode>) -> Exec {
    exec(
        &c.program,
        ExecMode::cured(c),
        c.temporal,
        engine,
        tier,
        input,
    )
}

/// Executes an uncured program on the VM.
pub fn exec_original(p: &ccured_cil::Program, input: &[u8]) -> Exec {
    exec(p, ExecMode::Original, false, Engine::Vm, None, input)
}

struct Prog {
    w: Workload,
    cured: ccured::Cured,
    original: ccured_cil::Program,
    /// The uncured run: reference output, exit and cost-model baseline.
    reference: Exec,
}

/// Set-up: generate and write the corpus, cure every program, and run
/// every uncured program once for its reference output.
fn setup(
    cfg: &RunConfig,
    scratch: &Scratch,
    round: usize,
    temporal: bool,
) -> io::Result<Result<Vec<Prog>, String>> {
    let dir = scratch.sub(&format!("run{round}"))?;
    let corpus = corpus::write_and_reload(&dir, corpus::run_corpus(cfg.seed, cfg.smoke))?;
    Ok(corpus
        .into_iter()
        .map(|w| {
            let cured = corpus::curer_for(&w, temporal)
                .cure_source(&w.source)
                .map_err(|e| format!("{}: cure failed: {e}", w.name))?;
            let original = corpus::lower_original(&w)?;
            let reference = exec_original(&original, &w.input);
            Ok(Prog {
                w,
                cured,
                original,
                reference,
            })
        })
        .collect())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The run phase of a workload: the cured programs and the samples its
/// timed passes have taken.
pub struct Phase {
    progs: Vec<Prog>,
    /// Timed samples per program: cured on the VM, then (traced runs) the
    /// knockouts — uncured, VM with tiering off, tree engine.
    vm: Vec<Vec<f64>>,
    original: Vec<Vec<f64>>,
    untiered: Vec<Vec<f64>>,
    tree: Vec<Vec<f64>>,
    /// One execution's counters per program, from the first timed pass.
    first: Vec<Option<Exec>>,
}

impl Phase {
    /// Set-up: generate and write the corpus, cure every program (with
    /// `--temporal` when `temporal`), and run every uncured program once.
    ///
    /// # Errors
    ///
    /// Scratch-directory I/O; a program that does not cure or lower is the
    /// inner error.
    pub fn setup(
        cfg: &RunConfig,
        scratch: &Scratch,
        round: usize,
        temporal: bool,
    ) -> io::Result<Result<Phase, String>> {
        Ok(setup(cfg, scratch, round, temporal)?.map(|progs| {
            let n = progs.len();
            Phase {
                progs,
                vm: vec![Vec::new(); n],
                original: vec![Vec::new(); n],
                untiered: vec![Vec::new(); n],
                tree: vec![Vec::new(); n],
                first: vec![None; n],
            }
        }))
    }

    /// One pass over the programs, round-robin; `timed` passes count.
    pub fn pass(&mut self, timed: bool, tracer: &mut Tracer, parent: SpanId, out: &mut Outcome) {
        let pass_span = tracer.reserve();
        let pass_start = Instant::now();
        for (i, p) in self.progs.iter().enumerate() {
            let t0 = Instant::now();
            let e = exec_cured(&p.cured, &p.w.input, Engine::Vm, None);
            tracer.leaf(
                pass_span,
                "runtime.run",
                t0,
                t0 + e.elapsed,
                Fields::item(&p.w.name),
            );
            let verdict = check::run_matches(
                &p.w.name,
                (&e.exit, &e.out),
                (&p.reference.exit, &p.reference.out),
                p.w.expect_exit,
            )
            .and_then(|()| match &self.first[i] {
                Some(f) => check::count_repeats(
                    &p.w.name,
                    "checks executed",
                    f.counters.total_checks(),
                    e.counters.total_checks(),
                ),
                None => Ok(()),
            });
            if let Err(msg) = verdict {
                out.problem(msg);
            }
            if !timed {
                continue;
            }
            out.attempted += 1;
            self.vm[i].push(ms(e.elapsed));
            if tracer.enabled() {
                let s = Instant::now();
                let o = exec_original(&p.original, &p.w.input);
                tracer.leaf(
                    pass_span,
                    "runtime.original",
                    s,
                    s + o.elapsed,
                    Fields::item(&p.w.name),
                );
                self.original[i].push(ms(o.elapsed));
                let s = Instant::now();
                let u = exec_cured(&p.cured, &p.w.input, Engine::Vm, Some(TierMode::Off));
                tracer.leaf(
                    pass_span,
                    "runtime.untiered",
                    s,
                    s + u.elapsed,
                    Fields::item(&p.w.name),
                );
                self.untiered[i].push(ms(u.elapsed));
                let s = Instant::now();
                let t = exec_cured(&p.cured, &p.w.input, Engine::Tree, None);
                tracer.leaf(
                    pass_span,
                    "runtime.tree",
                    s,
                    s + t.elapsed,
                    Fields::item(&p.w.name),
                );
                self.tree[i].push(ms(t.elapsed));
                for (what, k) in [("untiered VM", &u), ("tree engine", &t)] {
                    if let Err(msg) = check::run_matches(
                        &format!("{} ({what})", p.w.name),
                        (&k.exit, &k.out),
                        (&p.reference.exit, &p.reference.out),
                        p.w.expect_exit,
                    ) {
                        out.problem(msg);
                    }
                }
            }
            if self.first[i].is_none() {
                self.first[i] = Some(e);
            }
        }
        tracer.record(
            pass_span,
            parent,
            "run.pass",
            pass_start,
            Instant::now(),
            Fields::default(),
        );
    }

    /// The checks made once after the timed phase: every program completed
    /// a timed execution, and the tree engine executes as many checks as
    /// the VM did (check counts are deterministic, and repeats are checked
    /// in every pass). Returns the first timed execution of every program,
    /// or `None` when one is missing.
    pub fn finish(&self, out: &mut Outcome) -> Option<Vec<&Exec>> {
        let firsts: Vec<&Exec> = self.first.iter().flatten().collect();
        if firsts.len() != self.progs.len() {
            out.problem("a program never completed a timed execution");
            return None;
        }
        for (p, f) in self.progs.iter().zip(&firsts) {
            let t = exec_cured(&p.cured, &p.w.input, Engine::Tree, None);
            if let Err(msg) = check::engines_agree(
                &p.w.name,
                f.counters.total_checks(),
                t.counters.total_checks(),
            ) {
                out.problem(msg);
            }
        }
        Some(firsts)
    }

    /// The end-to-end metrics of the phase, from [`Phase::finish`]'s
    /// executions.
    pub fn end_to_end(&self, firsts: &[&Exec], out: &mut Outcome) {
        let model = CostModel::default();
        let ratios: Vec<f64> = self
            .progs
            .iter()
            .zip(firsts)
            .map(|(p, e)| model.ratio(&e.counters, &p.reference.counters))
            .collect();
        let checks: u64 = firsts.iter().map(|e| e.counters.total_checks()).sum();
        out.metric("run_ms_geomean", geomean(&fastests(&self.vm)), "ms");
        out.metric("cost_ratio_geomean", geomean(&ratios), "ratio");
        out.metric("checks_executed", checks as f64, "count");
    }

    /// The per-layer metrics of the phase, from [`Phase::finish`]'s
    /// executions.
    pub fn per_layer(&self, firsts: &[&Exec], out: &mut Outcome) {
        out.notes.push(format!(
            "traced end-to-end: run_ms_geomean={}",
            geomean(&fastests(&self.vm))
        ));
        for (name, samples) in [
            ("runtime.original_ms_geomean", &self.original),
            ("runtime.untiered_ms_geomean", &self.untiered),
            ("runtime.tree_ms_geomean", &self.tree),
        ] {
            out.metric(name, geomean(&fastests(samples)), "ms");
        }
        let sum = |f: &dyn Fn(&Exec) -> u64| firsts.iter().map(|e| f(e)).sum::<u64>() as f64;
        for (name, value) in [
            ("runtime.steps", sum(&|e| e.counters.instrs)),
            ("runtime.null_checks", sum(&|e| e.counters.null_checks)),
            (
                "runtime.seq_checks",
                sum(&|e| e.counters.seq_bounds_checks + e.counters.seq_to_safe_checks),
            ),
            (
                "runtime.wild_checks",
                sum(&|e| e.counters.wild_bounds_checks + e.counters.wild_tag_checks),
            ),
            ("runtime.rtti_checks", sum(&|e| e.counters.rtti_checks)),
            (
                "runtime.temporal_checks",
                sum(&|e| e.counters.temporal_checks),
            ),
            ("runtime.meta_ops", sum(&|e| e.counters.meta_ops)),
            ("runtime.limit_checks", sum(&|e| e.counters.limit_checks)),
            ("runtime.shadow_ops", sum(&|e| e.counters.shadow_ops)),
        ] {
            out.metric(name, value, "count");
        }
        let model = CostModel::default();
        out.metric(
            "runtime.check_cycles",
            firsts.iter().map(|e| model.check_cycles(&e.counters)).sum(),
            "cycles",
        );
        out.metric(
            "runtime.tier_promotions",
            sum(&|e| e.tier.promotions),
            "count",
        );
        out.metric("runtime.osr", sum(&|e| e.tier.osr), "count");
    }
}
