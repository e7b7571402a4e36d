//! Correctness checks on the program's outputs. Each is a pure function
//! from what the program produced and what it should have produced to a
//! verdict, so the benchmark's tests can feed each one a wrong output.

use crate::json::Json;

/// A cured run's output and exit code equal the uncured run's and the
/// workload's hand-written expected exit (0 for synth units, which checks
/// their checksum against the generator's).
///
/// # Errors
///
/// A description of the first mismatch.
pub fn run_matches(
    name: &str,
    got: (&Result<i64, String>, &[u8]),
    original: (&Result<i64, String>, &[u8]),
    expect_exit: i64,
) -> Result<(), String> {
    let (got_exit, got_out) = got;
    let (orig_exit, orig_out) = original;
    match (got_exit, orig_exit) {
        (Err(e), _) => Err(format!("{name}: cured run failed: {e}")),
        (_, Err(e)) => Err(format!("{name}: original run failed: {e}")),
        (Ok(g), Ok(o)) if g != o => Err(format!("{name}: cured exit {g} != original exit {o}")),
        (Ok(g), _) if *g != expect_exit => {
            Err(format!("{name}: exit {g} != expected exit {expect_exit}"))
        }
        _ if got_out != orig_out => Err(format!(
            "{name}: cured output ({} bytes) differs from original output ({} bytes)",
            got_out.len(),
            orig_out.len()
        )),
        _ => Ok(()),
    }
}

/// The tree engine and the VM execute the same number of checks.
///
/// # Errors
///
/// A description of the disagreement.
pub fn engines_agree(name: &str, vm_checks: u64, tree_checks: u64) -> Result<(), String> {
    if vm_checks == tree_checks {
        Ok(())
    } else {
        Err(format!(
            "{name}: VM executed {vm_checks} checks, tree engine {tree_checks}"
        ))
    }
}

/// A deterministic count repeats exactly across executions.
///
/// # Errors
///
/// A description of the change.
pub fn count_repeats(name: &str, what: &str, first: u64, now: u64) -> Result<(), String> {
    if first == now {
        Ok(())
    } else {
        Err(format!("{name}: {what} changed from {first} to {now}"))
    }
}

/// Two renderings of one unit's cure are byte-identical.
///
/// # Errors
///
/// Where the texts first differ.
pub fn same_text(name: &str, what: &str, reference: &str, got: &str) -> Result<(), String> {
    if reference == got {
        return Ok(());
    }
    let at = reference
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(reference.len().min(got.len()));
    Err(format!(
        "{name}: {what} differs at byte {at} ({} vs {} bytes)",
        reference.len(),
        got.len()
    ))
}

/// Which serve request a reply answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Bytes the server has not seen (a new unit, or a unit after an
    /// edit): must be cured, not served from the whole-unit cache.
    Cured,
    /// An unchanged unit: must come from the whole-unit cache.
    Hit,
}

/// A `cure` reply is `ok`, came through the expected path, and carries
/// the digest an in-process cold cure of the same source gives. Returns
/// the reply's server-side time (`elapsed_ns`), in ms.
///
/// # Errors
///
/// The reply is malformed, not `ok`, took the wrong path, or has another
/// digest.
pub fn serve_reply(reply: &str, expect: Expect, cold_digest: &str) -> Result<f64, String> {
    let j = Json::parse(reply).map_err(|e| format!("unparsable reply `{reply}`: {e}"))?;
    if j.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("reply is not ok: {reply}"));
    }
    let from_cache = j.get("from_cache").and_then(Json::as_bool) == Some(true);
    match expect {
        Expect::Hit if !from_cache => {
            return Err(format!("unchanged unit missed the unit cache: {reply}"));
        }
        Expect::Cured if from_cache => {
            return Err(format!(
                "new bytes were served from the unit cache: {reply}"
            ));
        }
        _ => {}
    }
    let digest = j
        .get("digest")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("reply has no digest: {reply}"))?;
    if digest != cold_digest {
        return Err(format!(
            "digest {digest} != in-process cold cure digest {cold_digest}"
        ));
    }
    j.get("elapsed_ns")
        .and_then(Json::as_f64)
        .map(|ns| ns / 1e6)
        .ok_or_else(|| format!("reply has no elapsed_ns: {reply}"))
}

/// A connection carried exactly one terminal reply line.
///
/// # Errors
///
/// How many lines the connection carried instead.
pub fn one_reply(bytes: &[u8]) -> Result<(), String> {
    let lines = bytes
        .split(|b| *b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    if lines == 1 {
        Ok(())
    } else {
        Err(format!(
            "connection carried {lines} replies, expected exactly 1"
        ))
    }
}

/// The digest serve reports for a cure report: FNV-1a of its canonical
/// form, in hex.
pub fn report_digest(report: &ccured::CureReport) -> String {
    ccured_batch::hash::hex(ccured_batch::hash::fnv1a(report.canonical().as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_check_rejects_each_kind_of_wrong_output() {
        let ok: Result<i64, String> = Ok(0);
        assert!(run_matches("p", (&ok, b"out"), (&ok, b"out"), 0).is_ok());
        // Wrong output.
        assert!(run_matches("p", (&ok, b"bad"), (&ok, b"out"), 0).is_err());
        // Wrong exit, agreeing with neither the original nor the expectation.
        assert!(run_matches("p", (&Ok(3), b"out"), (&ok, b"out"), 0).is_err());
        // Both runs agree but miss the hand-written expected exit (a synth
        // unit whose checksum is off exits non-zero).
        assert!(run_matches("p", (&Ok(1), b"out"), (&Ok(1), b"out"), 0).is_err());
        // A trapped run.
        let trap: Result<i64, String> = Err("check failed".into());
        assert!(run_matches("p", (&trap, b""), (&ok, b""), 0).is_err());
    }

    #[test]
    fn engine_and_count_checks_reject_disagreement() {
        assert!(engines_agree("p", 10, 10).is_ok());
        assert!(engines_agree("p", 10, 11).is_err());
        assert!(count_repeats("p", "checks", 5, 5).is_ok());
        assert!(count_repeats("p", "checks", 5, 6).is_err());
    }

    #[test]
    fn text_check_rejects_any_byte_difference() {
        assert!(same_text("u", "print", "abc", "abc").is_ok());
        let e = same_text("u", "print", "abc", "abd").unwrap_err();
        assert!(e.contains("byte 2"), "{e}");
        assert!(same_text("u", "print", "abc", "ab").is_err());
    }

    const HIT: &str = r#"{"status":"ok","kind":"cure","path":"u.c","from_cache":true,"digest":"aa","checks_inserted":3,"fn_hits":0,"fn_misses":0,"elapsed_ns":1000}"#;
    const EDIT: &str = r#"{"status":"ok","kind":"cure","path":"u.c","from_cache":false,"digest":"bb","checks_inserted":3,"fn_hits":9,"fn_misses":1,"retries":0,"elapsed_ns":5000}"#;

    #[test]
    fn serve_check_accepts_right_replies() {
        assert_eq!(serve_reply(HIT, Expect::Hit, "aa"), Ok(0.001));
        assert!(serve_reply(EDIT, Expect::Cured, "bb").is_ok());
    }

    #[test]
    fn serve_check_rejects_each_kind_of_wrong_reply() {
        // Wrong digest.
        assert!(serve_reply(HIT, Expect::Hit, "ab").is_err());
        // A hit that was re-cured, and an edit served from the unit cache.
        assert!(serve_reply(EDIT, Expect::Hit, "bb").is_err());
        assert!(serve_reply(HIT, Expect::Cured, "aa").is_err());
        // Error and busy replies, and garbage.
        assert!(serve_reply(r#"{"status":"error","error":"x"}"#, Expect::Hit, "aa").is_err());
        assert!(serve_reply(r#"{"status":"busy"}"#, Expect::Hit, "aa").is_err());
        assert!(serve_reply("", Expect::Hit, "aa").is_err());
    }

    #[test]
    fn one_reply_check_counts_lines() {
        assert!(one_reply(b"{\"status\":\"error\"}\n").is_ok());
        assert!(one_reply(b"").is_err());
        assert!(one_reply(b"{}\n{}\n").is_err());
    }

    #[test]
    fn report_digest_matches_a_cold_cure_and_tracks_the_source() {
        let curer = ccured::Curer::new();
        let a = curer
            .cure_source("int main(void) { int x = 1; int *p = &x; return *p; }")
            .unwrap();
        let b = curer
            .cure_source("int main(void) { int x = 2; int *p = &x; int *q = p; return *q; }")
            .unwrap();
        assert_eq!(report_digest(&a.report), report_digest(&a.report));
        assert_ne!(report_digest(&a.report), report_digest(&b.report));
    }
}
