//! The serve phase: an in-process `ccured_batch::serve::Server` with
//! its own socket and cache directory, driven by one closed-loop client
//! that opens a fresh connection per request through
//! `ccured_batch::serve::request`, as `ccured client` does.
//!
//! A round is one save-and-rebuild, the two shapes of the E16 `fig-serve`
//! experiment put together: a body-local edit is saved to one function of
//! `bind`, then a build requests a cure of every unit of the corpus. The
//! edited unit has bytes the unit cache has never seen and is re-cured
//! through its function cache; every other unit is a unit-cache hit. Each
//! round also holds one request whose path is not UTF-8. The server drops
//! that one without a reply (a known fault), so it is counted as failed.
//! Runs stop at a round boundary, so the failed share is the same in every
//! run.

use crate::corpus::{self, SEED_EDIT, SEED_ORDER};
use crate::json::Json;
use crate::outcome::Outcome;
use crate::scratch::Scratch;
use crate::stats::{fastest, median, percentile};
use crate::trace::{Fields, Tracer};
use crate::{check, derive_seed, RunConfig};
use ccured_batch::{request, ServeConfig, Server};
use ccured_workloads::prng::SplitMix64;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Edits replayed in-process for the incremental-cure layer metrics.
const REPLAYS: usize = 40;
/// The request line whose path is not UTF-8.
const BAD_REQUEST: &[u8] = b"cure \xff\xfe.c";
/// Every this many functions of the edit target, one is edited: 8 of
/// `bind`'s 93, so that a 40-second run edits each about 30 times and its
/// fastest edit is a steady figure.
const EDITED_EVERY: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Hit(usize),
    Edit,
    Bad,
}

/// One request as the client saw it.
struct Sent {
    op: Op,
    /// Sent in a timed round (the warm-up round's requests are checked
    /// but not counted).
    timed: bool,
    /// The unit of a hit, the header line of an edited function.
    item: usize,
    /// Index into the sources the unit held (base sources, then edits).
    source: usize,
    start: Instant,
    end: Instant,
    /// Edits only: when the client started writing the edited unit.
    write_start: Option<Instant>,
    reply: Option<String>,
}

struct Instance {
    server: Server,
    paths: Vec<PathBuf>,
    /// Reference digest of each base unit (in-process cold cure).
    digests: Vec<String>,
}

/// Lines that open a function definition: `type name(params) {` at the
/// start of a line.
pub fn function_headers(src: &str) -> Vec<usize> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| {
            let Some(open) = l.find('(') else {
                return false;
            };
            let head = &l[..open];
            l.starts_with(|c: char| c.is_ascii_alphabetic())
                && l.trim_end().ends_with('{')
                && !head.contains('=')
                && head.split_whitespace().count() >= 2
        })
        .map(|(i, _)| i)
        .collect()
}

/// The edit recipe: a new first statement in the body of the function
/// opened on line `header`, declaring a local initialised to `k`. It
/// touches one function body and gives the unit bytes it never had.
pub fn edit_source(base: &str, header: usize, k: u64) -> String {
    let mut out = String::with_capacity(base.len() + 48);
    for (i, line) in base.lines().enumerate() {
        out.push_str(line);
        out.push('\n');
        if i == header {
            out.push_str(&format!("int perfbench_edit = {k};\n"));
        }
    }
    out
}

/// Sends one raw request line and reads until the server closes the
/// connection.
fn raw_request(socket: &Path, line: &[u8]) -> io::Result<Vec<u8>> {
    let mut s = UnixStream::connect(socket)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    s.write_all(line)?;
    s.write_all(b"\n")?;
    s.shutdown(std::net::Shutdown::Write)?;
    let mut reply = Vec::new();
    s.read_to_end(&mut reply)?;
    Ok(reply)
}

fn serve_curer(temporal: bool) -> ccured::Curer {
    let mut c = ccured::Curer::new();
    c.with_stdlib_wrappers();
    c.temporal(temporal);
    c
}

/// Set-up: write the units, start the daemon and fill its caches with one
/// cold cure per unit, checked against an in-process cold cure.
fn setup(
    scratch: &Scratch,
    round: usize,
    corpus: &[ccured_workloads::Workload],
    curer: &ccured::Curer,
    out: &mut Outcome,
) -> io::Result<Instance> {
    let dir = scratch.sub(&format!("serve{round}"))?;
    let paths = ccured_workloads::write_units(&dir.join("units"), corpus)?;
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.curer = curer.clone();
    cfg.cache_dir = Some(dir.join("cache"));
    cfg.workers = 2;
    let server = Server::start(cfg)?;
    let mut digests: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (w, p) in corpus.iter().zip(&paths) {
        let source = std::fs::read_to_string(p)?;
        // Two units with the same bytes share one unit-cache entry.
        let expect = if seen.insert(source.clone()) {
            check::Expect::Cured
        } else {
            check::Expect::Hit
        };
        let digest = match curer.cure_source(&source) {
            Ok(c) => check::report_digest(&c.report),
            Err(e) => {
                out.problem(format!("{}: in-process cure failed: {e}", w.name));
                String::new()
            }
        };
        let reply = request(server.socket(), &format!("cure {}", p.display()))?;
        if let Err(e) = check::serve_reply(&reply, expect, &digest) {
            out.problem(format!("{}: {e}", w.name));
        }
        digests.push(digest);
    }
    Ok(Instance {
        server,
        paths,
        digests,
    })
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The round's requests: one per unit of the corpus, the edited unit's
/// being the edit, and the one non-UTF-8 request.
fn round_ops(units: usize, target: usize) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..units)
        .map(|u| if u == target { Op::Edit } else { Op::Hit(u) })
        .collect();
    ops.push(Op::Bad);
    ops
}

/// The serve phase of a workload: a running daemon, the state of its
/// units and edits, and every request sent so far.
pub struct Phase {
    corpus: Vec<ccured_workloads::Workload>,
    /// Index of the unit every edit touches.
    target: usize,
    /// Headers of the edit target's functions that are edited.
    headers: Vec<usize>,
    inst: Instance,
    curer: ccured::Curer,
    /// Every edit so far, as `(header, k)`: a unit's source id at or above
    /// the corpus length names one, rebuilt on demand so memory does not
    /// grow with the run's length.
    edits: Vec<(usize, u64)>,
    /// The source id each unit holds now.
    current: Vec<usize>,
    one_round: Vec<Op>,
    /// The edited function is drawn from a seeded permutation of every
    /// function, renewed when spent, so each function is edited equally
    /// often and the share of edits that cost a whole-unit re-cure is a
    /// property of `bind`, not of the seed.
    to_edit: Vec<usize>,
    order_rng: SplitMix64,
    edit_rng: SplitMix64,
    lines: Vec<String>,
    sent: Vec<Sent>,
    /// Wall-clock of the timed rounds, in seconds.
    timed_secs: f64,
}

impl Phase {
    /// Set-up: write the units, start the daemon (curing with `--temporal`
    /// when `temporal`) and fill its caches with one cold cure per unit,
    /// each checked against an in-process cold cure.
    ///
    /// # Errors
    ///
    /// Scratch-directory and socket I/O; a corpus without an edit target
    /// is the inner error.
    pub fn setup(
        cfg: &RunConfig,
        scratch: &Scratch,
        round: usize,
        temporal: bool,
        out: &mut Outcome,
    ) -> io::Result<Result<Phase, String>> {
        let corpus = corpus::serve_corpus(cfg.smoke);
        let Some(target) = corpus.iter().position(|w| w.name == corpus::EDIT_TARGET) else {
            return Ok(Err("the serve corpus has no edit target".into()));
        };
        let headers: Vec<usize> = function_headers(&corpus[target].source)
            .into_iter()
            .step_by(EDITED_EVERY)
            .collect();
        if headers.is_empty() {
            return Ok(Err("the edit target has no function to edit".into()));
        }
        let curer = serve_curer(temporal);
        let inst = setup(scratch, round, &corpus, &curer, out)?;
        let lines = inst
            .paths
            .iter()
            .map(|p| format!("cure {}", p.display()))
            .collect();
        Ok(Ok(Phase {
            current: (0..corpus.len()).collect(),
            one_round: round_ops(corpus.len(), target),
            corpus,
            target,
            headers,
            inst,
            curer,
            edits: Vec::new(),
            to_edit: Vec::new(),
            order_rng: SplitMix64::new(derive_seed(cfg.seed, SEED_ORDER)),
            edit_rng: SplitMix64::new(derive_seed(cfg.seed, SEED_EDIT)),
            lines,
            sent: Vec::new(),
            timed_secs: 0.0,
        }))
    }

    fn source_of(&self, id: usize) -> String {
        match id.checked_sub(self.corpus.len()) {
            None => self.corpus[id].source.clone(),
            Some(e) => edit_source(
                &self.corpus[self.target].source,
                self.edits[e].0,
                self.edits[e].1,
            ),
        }
    }

    /// One save-and-rebuild round in a seeded order; `timed` rounds count.
    ///
    /// # Errors
    ///
    /// Socket and unit-file I/O.
    pub fn round(&mut self, timed: bool) -> io::Result<()> {
        let socket = self.inst.server.socket().to_path_buf();
        let mut ops = self.one_round.clone();
        shuffle(&mut ops, &mut self.order_rng);
        let round_start = Instant::now();
        for op in ops {
            let mut write_start = None;
            let mut item = 0;
            let (source, t0, reply) = match op {
                Op::Hit(u) => {
                    item = u;
                    let t0 = Instant::now();
                    (self.current[u], t0, Some(request(&socket, &self.lines[u])?))
                }
                Op::Edit => {
                    if self.to_edit.is_empty() {
                        self.to_edit.clone_from(&self.headers);
                        shuffle(&mut self.to_edit, &mut self.edit_rng);
                    }
                    let header = self.to_edit.pop().expect("refilled when empty");
                    item = header;
                    let id = self.corpus.len() + self.edits.len();
                    self.edits.push((header, id as u64));
                    self.current[self.target] = id;
                    write_start = Some(Instant::now());
                    std::fs::write(&self.inst.paths[self.target], self.source_of(id))?;
                    let t0 = Instant::now();
                    let reply = request(&socket, &self.lines[self.target])?;
                    (id, t0, Some(reply))
                }
                Op::Bad => {
                    let t0 = Instant::now();
                    let bytes = raw_request(&socket, BAD_REQUEST)?;
                    // Exactly one terminal reply is the contract; today the
                    // server sends none, and the request counts as failed.
                    let reply = check::one_reply(&bytes)
                        .ok()
                        .map(|()| String::from_utf8_lossy(&bytes).trim_end().to_string());
                    (0, t0, reply)
                }
            };
            self.sent.push(Sent {
                op,
                timed,
                item,
                source,
                start: t0,
                end: Instant::now(),
                write_start,
                reply,
            });
        }
        if timed {
            self.timed_secs += round_start.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Stops the daemon, checks every reply against an in-process cold
    /// cure of the bytes the unit held, and reports the phase's metrics:
    /// end-to-end ones untraced, per-layer ones traced.
    ///
    /// # Errors
    ///
    /// Socket I/O for the final `status` request.
    pub fn finish(mut self, tracer: &mut Tracer, out: &mut Outcome) -> io::Result<()> {
        let status = request(self.inst.server.socket(), "status")?;
        self.inst.server.stop();
        let mut digest_of: HashMap<usize, String> =
            self.inst.digests.iter().cloned().enumerate().collect();
        let (mut hit_ms, mut edit_all, mut all_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut hit_over, mut edit_over) = (Vec::new(), Vec::new());
        // Timed samples per item: each unit's hits; for each class of edits
        // (one edited function, and whether the daemon re-cured the whole
        // unit — no function-cache hit — or replayed the untouched
        // functions) the client latency, worker time and whole operation
        // (the unit write included); and the non-UTF-8 requests.
        let mut hits: HashMap<usize, Vec<f64>> = HashMap::new();
        let mut edits: HashMap<(usize, bool), [Vec<f64>; 3]> = HashMap::new();
        let mut bad_ms = Vec::new();
        for (req, s) in self.sent.iter().enumerate() {
            out.attempted += u64::from(s.timed);
            let lat = (s.end - s.start).as_secs_f64() * 1e3;
            let op_span = tracer.reserve();
            let kind = match s.op {
                Op::Hit(_) => "hit",
                Op::Edit => "edit",
                Op::Bad => "bad",
            };
            if let Some(w) = s.write_start {
                tracer.leaf(
                    op_span,
                    "fs.write_unit",
                    w,
                    s.start,
                    Fields::req(req as u64),
                );
            }
            let op_start = s.write_start.unwrap_or(s.start);
            if s.op == Op::Bad {
                // Exactly one terminal reply is all the contract asks of the
                // non-UTF-8 request; none at all is a failed request.
                let failed = s.reply.is_none();
                out.failed += u64::from(failed && s.timed);
                if s.timed {
                    bad_ms.push(lat);
                    if !failed {
                        all_ms.push(lat);
                    }
                }
                let req = Fields::req(req as u64);
                tracer.leaf(op_span, "serve.raw_request", s.start, s.end, req.clone());
                let req = req.with("failed", f64::from(u8::from(failed)));
                tracer.record(op_span, 0, "serve.op", op_start, s.end, req);
                continue;
            }
            let reply = s
                .reply
                .as_deref()
                .expect("hits and edits always carry a reply");
            let digest = match digest_of.get(&s.source) {
                Some(d) => d,
                None => {
                    let d = match self.curer.cure_source(&self.source_of(s.source)) {
                        Ok(c) => check::report_digest(&c.report),
                        Err(e) => format!("in-process cure failed: {e}"),
                    };
                    digest_of.entry(s.source).or_insert(d)
                }
            };
            let expect = if s.op == Op::Edit {
                check::Expect::Cured
            } else {
                check::Expect::Hit
            };
            let worker_ms = match check::serve_reply(reply, expect, digest) {
                Ok(ms) => ms,
                Err(e) => {
                    out.problem(format!("request {req} ({kind}): {e}"));
                    continue;
                }
            };
            tracer.leaf(
                op_span,
                "batch.serve.request",
                s.start,
                s.end,
                Fields::req(req as u64).with("worker_ms", worker_ms),
            );
            tracer.record(
                op_span,
                0,
                "serve.op",
                op_start,
                s.end,
                Fields::req(req as u64),
            );
            if !s.timed {
                continue;
            }
            all_ms.push(lat);
            if s.op == Op::Edit {
                edit_all.push(lat);
                edit_over.push(lat - worker_ms);
                let fn_hits = Json::parse(reply)
                    .ok()
                    .and_then(|j| j.get("fn_hits").and_then(Json::as_f64));
                let e = edits.entry((s.item, fn_hits == Some(0.0))).or_default();
                e[0].push(lat);
                e[1].push(worker_ms);
                e[2].push((s.end - op_start).as_secs_f64() * 1e3);
            } else {
                hit_ms.push(lat);
                hit_over.push(lat - worker_ms);
                hits.entry(s.item).or_default().push(lat);
            }
        }

        // Each edit counts at the fastest sample of its class, as the cure
        // and run phases take each item's fastest sample, and for the same
        // reason: an edit is CPU-bound in the daemon, and the median of all
        // edits reads the host's slow stretches (over ten runs it read
        // 16.3–21.7 ms). The mean over edits keeps the share of whole-unit
        // re-cures in the figure; a median would flip between the two
        // classes of a function as that share crosses one half.
        let edit_mean = |k: usize| -> f64 {
            let (sum, n) = edits.values().fold((0.0, 0), |(sum, n), e| {
                (sum + fastest(&e[k]) * e[k].len() as f64, n + e[k].len())
            });
            sum / n as f64
        };
        let edit_ms = edit_mean(0);
        // Replied requests per second over a typical serve round: each
        // unit's median hit, the mean edit operation as above, the median
        // non-UTF-8 request. A hit or a non-UTF-8 request is mostly the
        // daemon's 1 ms accept poll, a sleep: its median is steady, and its
        // fastest is the luck of connecting just before the poll wakes.
        let round_ms =
            hits.values().map(|h| median(h)).sum::<f64>() + edit_mean(2) + median(&bad_ms);
        let timed_rounds = self.sent.iter().filter(|s| s.timed).count() / self.one_round.len();
        let req_per_s = all_ms.len() as f64 / timed_rounds as f64 / (round_ms / 1e3);
        out.notes.push(format!(
            "serve over every request: {} replied, {} req/s of wall-clock, hit p50 {} ms, edit p50 {} ms, p99 {} ms",
            all_ms.len(),
            all_ms.len() as f64 / self.timed_secs,
            median(&hit_ms),
            median(&edit_all),
            percentile(&all_ms, 99.0),
        ));
        if !tracer.enabled() {
            out.metric("serve_req_per_s", req_per_s, "req/s");
            out.metric("serve_hit_p50_ms", median(&hit_ms), "ms");
            out.metric("serve_edit_ms", edit_ms, "ms");
            return Ok(());
        }
        out.notes.push(format!(
            "traced end-to-end: serve_req_per_s={req_per_s} serve_hit_p50_ms={} serve_edit_ms={edit_ms}",
            median(&hit_ms),
        ));
        out.metric("serve.hit_overhead_ms", median(&hit_over), "ms");
        out.metric("serve.edit_overhead_ms", median(&edit_over), "ms");
        out.metric("serve.edit_worker_ms", edit_mean(1), "ms");
        let first = self.corpus.len();
        let replays: Vec<String> = (first..first + self.edits.len().min(REPLAYS))
            .map(|id| self.source_of(id))
            .collect();
        replay_edits(
            &self.curer,
            &self.corpus[self.target].source,
            &replays,
            tracer,
            out,
        );
        status_counters(&status, out);
        Ok(())
    }
}

/// Replays the run's edit sequence in-process through
/// `cure_source_incremental`, starting from a cache warmed by the base
/// unit, and reports the median time of each incremental stage.
fn replay_edits(
    curer: &ccured::Curer,
    base: &str,
    edits: &[String],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut cache = ccured::FnCache::new();
    if let Err(e) = curer.cure_source_incremental(base, &mut cache) {
        out.problem(format!("incremental replay: base cure failed: {e}"));
        return;
    }
    let mut stages: [Vec<f64>; 4] = Default::default();
    for src in edits {
        let t0 = Instant::now();
        let r = curer.cure_source_incremental(src, &mut cache);
        let t1 = Instant::now();
        let Ok(r) = r else {
            out.problem("incremental replay: an edit failed to cure");
            return;
        };
        let t = &r.timings;
        let span = tracer.leaf(0, "core.cure_source_incremental", t0, t1, Fields::default());
        let mut at = t0;
        for (k, (name, d)) in [
            ("core.incr.parse", t.parse),
            ("core.incr.lower", t.lower),
            ("core.incr.infer", t.infer),
            ("core.incr.replay", t.instrument),
        ]
        .into_iter()
        .enumerate()
        {
            tracer.leaf(
                span,
                name,
                at,
                at + d,
                Fields::default().with("derived", 1.0),
            );
            at += d;
            stages[k].push(d.as_secs_f64() * 1e3);
        }
    }
    for (k, name) in [
        "core.incr.parse_ms",
        "core.incr.lower_ms",
        "core.incr.infer_ms",
        "core.incr.replay_ms",
    ]
    .into_iter()
    .enumerate()
    {
        out.metric(name, median(&stages[k]), "ms");
    }
}

/// The daemon's `status` counters.
fn status_counters(status: &str, out: &mut Outcome) {
    let j = match Json::parse(status) {
        Ok(j) => j,
        Err(e) => {
            out.problem(format!("unparsable status reply: {e}"));
            return;
        }
    };
    for (name, path) in [
        ("batch.cache.unit_hits", ["unit_cache", "hits"].as_slice()),
        ("batch.cache.unit_misses", &["unit_cache", "misses"]),
        ("core.incr.fn_hits", &["fn_cache", "hits"]),
        ("core.incr.fn_misses", &["fn_cache", "misses"]),
        ("core.incr.fn_invalidations", &["fn_cache", "invalidations"]),
        ("serve.retries", &["retries"]),
        ("serve.busy", &["busy"]),
    ] {
        match path
            .iter()
            .try_fold(&j, |v, k| v.get(k))
            .and_then(Json::as_f64)
        {
            Some(v) => out.metric(name, v, "count"),
            None => out.problem(format!("status reply has no {}: {status}", path.join("."))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_recipe_touches_one_function_body() {
        let src = "struct S { int a; };\nint f(int x) {\nfor (x = 0; x < 3; x++) {\n}\nreturn x;\n}\nstruct S *g(void) {\nreturn 0;\n}\n";
        assert_eq!(function_headers(src), vec![1, 6]);
        let e = edit_source(src, 6, 42);
        assert!(
            e.contains("struct S *g(void) {\nint perfbench_edit = 42;\nreturn 0;"),
            "{e}"
        );
        assert_ne!(edit_source(src, 6, 43), e);
    }

    #[test]
    fn a_round_is_one_rebuild_and_one_non_utf8_request() {
        assert_eq!(
            round_ops(4, 2),
            [Op::Hit(0), Op::Hit(1), Op::Edit, Op::Hit(3), Op::Bad]
        );
    }

    #[test]
    fn every_bind_function_edit_still_cures() {
        let bind = ccured_workloads::daemons::bind_like(40, 12);
        let headers = function_headers(&bind.source);
        assert!(headers.len() > 20, "{}", headers.len());
        let curer = serve_curer(false);
        for h in headers.iter().step_by(7) {
            let src = edit_source(&bind.source, *h, 1);
            assert!(
                curer.cure_source(&src).is_ok(),
                "edit at line {h} does not cure"
            );
        }
    }
}
