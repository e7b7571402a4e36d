//! The units each phase cures, runs or serves, built from the run seed.

use crate::derive_seed;
use ccured_workloads::{apache, daemons, olden, ptrdist, Workload};
use std::io;
use std::path::Path;

/// Seed purpose: synth units.
pub const SEED_SYNTH: u64 = 1;
/// Seed purpose: which function each serve edit touches.
pub const SEED_EDIT: u64 = 2;
/// Seed purpose: serve request order within a round.
pub const SEED_ORDER: u64 = 3;

/// `per_profile` seeded `ccured-synth` units from each of the four
/// profiles. Every synth unit checks its own checksum and exits 0.
pub fn synth_units(seed: u64, per_profile: usize) -> Vec<Workload> {
    ccured_synth::profiles::all()
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let s = derive_seed(seed, SEED_SYNTH.wrapping_add(i as u64 * 16));
            ccured_synth::generate(p, per_profile, s)
        })
        .collect()
}

/// The cure phase's corpus: the Figure 9 corpus, the suite corpus, the Apache
/// modules and four seeded synth units per profile.
pub fn cure_corpus(seed: u64, smoke: bool) -> Vec<Workload> {
    if smoke {
        let mut c = vec![
            daemons::pcnet32(40),
            daemons::openssl_bn(30),
            olden::treeadd(11),
            apache::asis(20),
        ];
        c.extend(synth_units(seed, 1));
        return c;
    }
    let mut c = daemons::figure9_corpus();
    c.extend(ccured_workloads::suite_corpus());
    c.extend(apache::all_modules(20));
    c.extend(synth_units(seed, 4));
    c
}

/// The run phase's corpus: the Figure 9 and suite corpora
/// plus one seeded synth unit per profile.
pub fn run_corpus(seed: u64, smoke: bool) -> Vec<Workload> {
    if smoke {
        let mut c = vec![
            daemons::sbull(60),
            daemons::openssl_bn(30),
            olden::treeadd(8),
            ptrdist::anagram(20),
        ];
        c.extend(synth_units(seed, 1).into_iter().step_by(2));
        return c;
    }
    let mut c = daemons::figure9_corpus();
    c.extend(ccured_workloads::suite_corpus());
    c.extend(synth_units(seed, 1));
    c
}

/// Name of the unit every serve edit touches.
pub const EDIT_TARGET: &str = "bind";

/// The serve phase's corpus: the Figure 9 corpus (its `bind` unit takes the
/// edits).
pub fn serve_corpus(smoke: bool) -> Vec<Workload> {
    if smoke {
        return vec![
            daemons::pcnet32(40),
            daemons::openssl_bn(30),
            daemons::bind_like(40, 12),
        ];
    }
    daemons::figure9_corpus()
}

/// A curer configured as `ccured` would cure `w`.
pub fn curer_for(w: &Workload, temporal: bool) -> ccured::Curer {
    let mut c = ccured::Curer::new();
    if w.with_wrappers {
        c.with_stdlib_wrappers();
    }
    c.temporal(temporal);
    c
}

/// Writes the corpus's sources under `dir` and reads them back, so that
/// every workload cures the bytes on disk, as `ccured` does.
///
/// # Errors
///
/// I/O errors writing or reading a unit.
pub fn write_and_reload(dir: &Path, corpus: Vec<Workload>) -> io::Result<Vec<Workload>> {
    let paths = ccured_workloads::write_units(dir, &corpus)?;
    corpus
        .into_iter()
        .zip(paths)
        .map(|(mut w, p)| {
            w.source = std::fs::read_to_string(p)?;
            Ok(w)
        })
        .collect()
}

/// Lowers `w` uncured, with its wrapper prelude present but calls not
/// redirected — the original program Figure 9 compares against.
///
/// # Errors
///
/// Frontend errors, as text.
pub fn lower_original(w: &Workload) -> Result<ccured_cil::Program, String> {
    let full = if w.with_wrappers {
        format!(
            "{}\n{}",
            ccured::wrappers::stdlib_wrapper_source(),
            w.source
        )
    } else {
        w.source.clone()
    };
    let tu = ccured_ast::parse_translation_unit(&full).map_err(|d| format!("{}: {d:?}", w.name))?;
    ccured_cil::lower_translation_unit(&tu).map_err(|d| format!("{}: {d:?}", w.name))
}

/// `(instructions, checks)` in a program's function bodies.
pub fn count_instrs(p: &ccured_cil::Program) -> (u64, u64) {
    use ccured_cil::ir::{Instr, Stmt};
    fn walk(stmts: &[Stmt], acc: &mut (u64, u64)) {
        for s in stmts {
            match s {
                Stmt::Instr(is) => {
                    acc.0 += is.len() as u64;
                    acc.1 += is.iter().filter(|i| matches!(i, Instr::Check(..))).count() as u64;
                }
                Stmt::If(_, a, b) => {
                    walk(a, acc);
                    walk(b, acc);
                }
                Stmt::Loop(b) | Stmt::Block(b) => walk(b, acc),
                Stmt::Switch(_, arms) => arms.iter().for_each(|a| walk(&a.body, acc)),
                Stmt::Break | Stmt::Continue | Stmt::Return(_) | Stmt::Goto(_) | Stmt::Label(_) => {
                }
            }
        }
    }
    let mut acc = (0, 0);
    for f in &p.functions {
        walk(&f.body, &mut acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_follow_the_seed() {
        let names = |c: Vec<Workload>| -> Vec<String> { c.into_iter().map(|w| w.source).collect() };
        assert_eq!(names(cure_corpus(5, true)), names(cure_corpus(5, true)));
        assert_ne!(names(synth_units(5, 1)), names(synth_units(6, 1)));
        assert_eq!(synth_units(5, 2).len(), 8);
    }

    #[test]
    fn counts_instructions_and_checks() {
        let w = Workload::new(
            "t",
            "int main(void) { int a[4]; int *p = a; p[1] = 2; return p[1]; }",
        )
        .without_wrappers();
        let cured = curer_for(&w, false).cure_source(&w.source).unwrap();
        let (instrs, checks) = count_instrs(&cured.program);
        assert!(instrs > checks && checks > 0, "{instrs} {checks}");
    }
}
