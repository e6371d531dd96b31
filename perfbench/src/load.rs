//! The HTTP load generator: warm-up, open loop, closed loop and (for the
//! traced run) a serial replay, against a running `ultrawiki serve`.
//!
//! One process, [`CLIENT_THREADS`] threads, one connection in flight per
//! thread. The client speaks HTTP with its own few lines of code rather
//! than the server's `http` module, so a change to the server's framing
//! cannot also speed up the client that measures it.

use crate::json::Obj;
use crate::stats::{self, latency, lateness, percentile, schedule_kept, windowed_tail};
use crate::workload::{Catalog, Phase, Request, Target, Workload};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use ultra_serve::{ExpandRequest, ExpandResponse, ExpansionEngine};

/// Client threads, and so connections in flight: the host's 2 cores.
pub const CLIENT_THREADS: usize = 2;
/// A request with no complete answer after this long counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Bodies kept per phase for in-process verification.
const VERIFY_SAMPLE: usize = 24;

/// One request as the client saw it; times in seconds from phase start.
#[derive(Clone, Copy, Debug, Default)]
struct Rec {
    idx: usize,
    due: f64,
    slot_free: f64,
    sent: f64,
    connected: f64,
    done: f64,
    ok: bool,
}

/// Sends one request and reads the whole `Connection: close` answer into
/// `buf`. Returns the instant the connection was up and the body's offset.
fn exchange(addr: SocketAddr, raw: &[u8], buf: &mut Vec<u8>) -> Option<(Instant, u16, usize)> {
    let mut conn = TcpStream::connect_timeout(&addr, IO_TIMEOUT).ok()?;
    let connected = Instant::now();
    conn.set_nodelay(true).ok()?;
    conn.set_read_timeout(Some(IO_TIMEOUT)).ok()?;
    conn.set_write_timeout(Some(IO_TIMEOUT)).ok()?;
    conn.write_all(raw).ok()?;
    buf.clear();
    conn.read_to_end(buf).ok()?;
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let status = std::str::from_utf8(buf.get(9..12)?).ok()?.parse().ok()?;
    Some((connected, status, head_end))
}

/// What to check on every answer of a phase.
struct Checks<'a> {
    /// `ret-hot`: the body each query index answered with during warm-up.
    expected: Option<&'a [Vec<u8>]>,
    /// Keep the body of request `i` for in-process verification.
    keep: &'a (dyn Fn(usize) -> bool + Sync),
}

struct PhaseRun {
    recs: Vec<Rec>,
    kept: Vec<(usize, Vec<u8>)>,
    repeats: u64,
    mismatches: Vec<String>,
    elapsed: f64,
}

/// Runs `reqs` over `threads` client threads. With `due`, request `i` is
/// not sent before `due[i]` seconds (open loop); with `deadline`, threads
/// stop taking new requests after it (closed loop).
fn run_phase(
    addr: SocketAddr,
    reqs: &[(Request, Vec<u8>)],
    threads: usize,
    due: Option<&[f64]>,
    deadline: Option<f64>,
    checks: &Checks,
) -> PhaseRun {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
    let per_thread: Vec<PhaseRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = PhaseRun {
                        recs: Vec::with_capacity(reqs.len() / threads + 1),
                        kept: Vec::new(),
                        repeats: 0,
                        mismatches: Vec::new(),
                        elapsed: 0.0,
                    };
                    let mut buf = Vec::with_capacity(16 * 1024);
                    let mut slot_free = 0.0;
                    loop {
                        if deadline.is_some_and(|d| secs(Instant::now()) >= d) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((req, raw)) = reqs.get(i) else { break };
                        let due_i = due.map_or(slot_free, |d| d[i]);
                        let now = secs(Instant::now());
                        if due_i > now {
                            std::thread::sleep(Duration::from_secs_f64(due_i - now));
                        }
                        let sent = Instant::now();
                        let answer = exchange(addr, raw, &mut buf);
                        let done = secs(Instant::now());
                        let mut rec = Rec {
                            idx: i,
                            due: due_i,
                            slot_free,
                            sent: secs(sent),
                            connected: done,
                            done,
                            ok: false,
                        };
                        if let Some((connected, status, body_at)) = answer {
                            rec.connected = secs(connected);
                            rec.ok = status == 200;
                            let body = &buf[body_at..];
                            if let (Some(expected), Target::Replay(q)) =
                                (checks.expected, &req.target)
                            {
                                out.repeats += 1;
                                if rec.ok && expected.get(*q).map(Vec::as_slice) != Some(body) {
                                    out.mismatches.push(format!(
                                        "query_index {q}: body differs from warm-up"
                                    ));
                                }
                            }
                            if rec.ok && (checks.keep)(i) {
                                out.kept.push((i, body.to_vec()));
                            }
                        }
                        slot_free = done;
                        out.recs.push(rec);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = PhaseRun {
        recs: Vec::new(),
        kept: Vec::new(),
        repeats: 0,
        mismatches: Vec::new(),
        elapsed: 0.0,
    };
    for t in per_thread {
        run.recs.extend(t.recs);
        run.kept.extend(t.kept);
        run.repeats += t.repeats;
        run.mismatches.extend(t.mismatches);
    }
    run.recs.sort_by_key(|r| r.idx);
    run.kept.sort_by_key(|k| k.0);
    run.elapsed = run.recs.iter().map(|r| r.done).fold(0.0, f64::max);
    run
}

fn counts(o: &mut Obj, phase: &str, run: &PhaseRun) {
    let ok = run.recs.iter().filter(|r| r.ok).count() as u64;
    o.int(&format!("{phase}.sent"), run.recs.len() as u64)
        .int(&format!("{phase}.ok"), ok)
        .int(&format!("{phase}.failed"), run.recs.len() as u64 - ok);
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The body the server must have sent for `req`, recomputed in-process with
/// the uncached pipeline.
pub fn expected_body(engine: &ExpansionEngine, req: &Request) -> Result<Vec<u8>, String> {
    let api: ExpandRequest = serde_json::from_str(&req.body()).map_err(|e| e.to_string())?;
    let (method, query, top_k) = engine.resolve(&api).map_err(|e| e.to_string())?;
    let list = engine
        .expand_uncached(method, &query, top_k)
        .map_err(|e| e.to_string())?;
    serde_json::to_vec(&ExpandResponse {
        method: method.name().to_string(),
        query,
        top_k,
        list,
    })
    .map_err(|e| e.to_string())
}

/// A seeded choice of which requests' bodies to keep: every `stride`-th
/// from a seed-chosen offset, at most [`VERIFY_SAMPLE`] of them.
fn sampler(seed: u64, n: usize) -> impl Fn(usize) -> bool + Sync {
    let stride = (n / VERIFY_SAMPLE).max(1);
    let offset = (seed as usize) % stride;
    move |i| i % stride == offset && i / stride < VERIFY_SAMPLE
}

pub struct LoadArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub engine: &'a ExpansionEngine,
    pub addr: SocketAddr,
    pub open_secs: f64,
    pub closed_secs: f64,
    /// Traced run: add a serial replay of the trace stream.
    pub serial: bool,
}

fn with_raw(reqs: Vec<Request>) -> Vec<(Request, Vec<u8>)> {
    reqs.into_iter()
        .map(|r| {
            let raw = r.raw();
            (r, raw)
        })
        .collect()
}

/// Runs every phase and returns the flat report plus the list of failed
/// output checks.
pub fn run(args: &LoadArgs) -> (Obj, Vec<String>) {
    let w = args.workload;
    let cat = Catalog::of(args.engine.world());
    let mut o = Obj::default();
    let mut errors = Vec::new();
    let keep_none = |_: usize| false;

    // Warm-up: fills the cache for `ret-hot`, warms the server otherwise.
    let warm = with_raw(w.warmup(&cat, args.seed));
    let keep_all = |_: usize| true;
    let run = run_phase(
        args.addr,
        &warm,
        CLIENT_THREADS,
        None,
        None,
        &Checks {
            expected: None,
            keep: &keep_all,
        },
    );
    counts(&mut o, "warmup", &run);
    let mut expected: Vec<Vec<u8>> = vec![Vec::new(); warm.len()];
    for (i, body) in &run.kept {
        expected[*i] = body.clone();
    }
    let mut to_verify: Vec<(Request, Vec<u8>)> = Vec::new();
    let warm_sample = sampler(args.seed, warm.len());
    to_verify.extend(
        run.kept
            .into_iter()
            .filter(|(i, _)| warm_sample(*i))
            .map(|(i, b)| (warm[i].0.clone(), b)),
    );
    let hot = matches!(w.kind, crate::workload::Kind::HotReplay);
    let expected = hot.then_some(expected.as_slice());

    // Open loop at the nominal rate, timed from each request's due time.
    let due = w.schedule(args.seed, args.open_secs);
    let open_reqs = with_raw(w.stream(&cat, args.seed, Phase::Open, due.len()));
    let open_keep = sampler(args.seed, due.len());
    let run = run_phase(
        args.addr,
        &open_reqs,
        CLIENT_THREADS,
        Some(&due),
        None,
        &Checks {
            expected,
            keep: &open_keep,
        },
    );
    counts(&mut o, "open", &run);
    let limit = w.limit_ms / 1e3;
    let late = sorted(
        run.recs
            .iter()
            .map(|r| lateness(r.due, r.slot_free, r.sent))
            .collect(),
    );
    let connect = sorted(
        run.recs
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.connected - r.sent)
            .collect(),
    );
    let n = run.recs.len();
    // Latencies in send order; a failed request never answered, so it sits
    // beyond every percentile.
    let lat: Vec<f64> = run
        .recs
        .iter()
        .map(|r| {
            if r.ok {
                latency(r.due, r.slot_free, r.sent, r.done)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let (tail, tail_pct) = windowed_tail(&lat);
    let within = lat.iter().filter(|&&l| l <= limit).count();
    o.int("open.n", n as u64)
        .num("open.tail_pct", tail_pct)
        .num("open.p50_ms", percentile(&sorted(lat.clone()), 50.0) * 1e3)
        .num("open.tail_ms", tail * 1e3)
        .num("open.connect_p50_us", percentile(&connect, 50.0) * 1e6);
    o.num("open.slo_ok_ratio", within as f64 / n.max(1) as f64)
        .num("open.late_p50_ms", percentile(&late, 50.0) * 1e3)
        .num("open.late_p99_ms", percentile(&late, 99.0) * 1e3)
        .int("open.valid", schedule_kept(&late, limit) as u64)
        .num(
            "open.backlog_ms",
            run.recs.iter().map(|r| r.sent - r.due).fold(0.0, f64::max) * 1e3,
        );
    let repeats = run.repeats;
    errors.extend(run.mismatches);
    to_verify.extend(
        run.kept
            .into_iter()
            .map(|(i, b)| (open_reqs[i].0.clone(), b)),
    );

    // Closed loop: capacity with every client waiting for its answer.
    let n = (w.capacity * args.closed_secs * 1.5).ceil() as usize;
    let reqs = with_raw(w.stream(&cat, args.seed, Phase::Closed, n));
    let closed_keep = sampler(args.seed ^ 1, (w.capacity * args.closed_secs) as usize);
    let run = run_phase(
        args.addr,
        &reqs,
        CLIENT_THREADS,
        None,
        Some(args.closed_secs),
        &Checks {
            expected,
            keep: &closed_keep,
        },
    );
    counts(&mut o, "closed", &run);
    let ok = run.recs.iter().filter(|r| r.ok).count();
    o.num("closed.throughput_rps", ok as f64 / run.elapsed.max(1e-9))
        .num("closed.secs", run.elapsed);
    if run.recs.len() == reqs.len() {
        errors.push("closed loop ran out of pre-generated requests".into());
    }
    errors.extend(run.mismatches);
    to_verify.extend(run.kept.into_iter().map(|(i, b)| (reqs[i].0.clone(), b)));

    if args.serial {
        // The trace stream, one request at a time: per-request HTTP cost
        // without queueing, the base of the attribution report.
        let reqs = with_raw(w.stream(&cat, args.seed, Phase::Trace, w.trace_requests));
        let run = run_phase(
            args.addr,
            &reqs,
            1,
            None,
            None,
            &Checks {
                expected,
                keep: &keep_none,
            },
        );
        counts(&mut o, "serial", &run);
        let total: Vec<f64> = run.recs.iter().map(|r| r.done - r.sent).collect();
        let connect: Vec<f64> = run.recs.iter().map(|r| r.connected - r.sent).collect();
        o.num(
            "serial.mean_us",
            total.iter().sum::<f64>() / total.len().max(1) as f64 * 1e6,
        )
        .num("serial.p50_us", stats::median(&total) * 1e6)
        .num("serial.connect_p50_us", stats::median(&connect) * 1e6);
        errors.extend(run.mismatches);
    }

    // Outside every timed window: recompute the kept bodies in-process.
    let mut verified = 0u64;
    for (req, body) in &to_verify {
        match expected_body(args.engine, req) {
            Ok(want) if &want == body => verified += 1,
            Ok(_) => errors.push(format!("{}: HTTP body differs from in-process", req.body())),
            Err(e) => errors.push(format!("{}: in-process recompute failed: {e}", req.body())),
        }
    }
    o.int("check.repeats", repeats)
        .int("check.verified", verified)
        .int("check.mismatches", errors.len() as u64);
    (o, errors)
}
