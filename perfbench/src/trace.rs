//! The traced run: the same request stream replayed in-process through the
//! public functions the server calls, in the server's order, with a span
//! around each call; the snapshot load split into its steps; and the
//! offline build rebuilt phase by phase.
//!
//! Spans are recorded by this file around calls into the library, never
//! inside it. They stay in memory until the run ends and are then written
//! out as JSON lines.

use crate::json::Obj;
use crate::stats::median;
use crate::workload::{Catalog, Phase, Request, Workload};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::path::Path;
use std::time::Instant;
use ultra_ann::{AnnSpec, CandidateSource, Exhaustive};
use ultra_core::RankedList;
use ultra_data::{World, WorldConfig};
use ultra_embed::{EncoderConfig, EntityEncoder};
use ultra_genexpan::{cot, CoocIndex, GenExpan, GenExpanConfig};
use ultra_par::Pool;
use ultra_retexpan::RetExpanConfig;
use ultra_serve::{
    http, CacheOutcome, ExpandRequest, ExpandResponse, ExpansionEngine, Method, SnapshotRuntime,
};
use ultra_snap::{Snapshot, SnapshotMeta};
use ultra_text::{Bm25Index, Bm25Params};

/// Requests of the stream replayed again (cache hits) and through the
/// other method, so every request layer is timed on every workload.
const COVERAGE: usize = 8;
/// Snapshot loads timed per run.
const LOADS: usize = 3;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing; plain call otherwise. Both runs of
/// the replay go through this, so they do the same work.
fn step<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, Option<usize>) {
    match tr {
        Some(t) => {
            let id = t.open(name, parent, request);
            let out = f();
            t.close(id);
            (out, Some(id))
        }
        None => (f(), None),
    }
}

/// Work counters of a replay; must repeat exactly between runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counters {
    bytes_in: u64,
    bytes_out: u64,
    entities_scored: u64,
    l0_len: u64,
    neg_scored: u64,
    gen_list_len: u64,
    gen_hallucinated: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct Replay<'a> {
    engine: &'a ExpansionEngine,
    cooc: &'a CoocIndex,
    gen_cfg: GenExpanConfig,
    counters: Counters,
    errors: Vec<String>,
    /// Server-path time per stream request (µs): the request span when
    /// tracing, one stopwatch around the same calls otherwise.
    request_us: Vec<f64>,
    /// Sum of the server-path child spans per stream request (µs).
    layers_us: Vec<f64>,
    out: Vec<u8>,
}

impl Replay<'_> {
    /// One request the way `ultra_serve::server` handles it: parse, decode,
    /// resolve, cache-aware expand, encode, write. A miss is then broken
    /// down by calling the pipeline's stages one by one (outside the
    /// request span, so it does not count towards the server path).
    fn serve(&mut self, raw: &[u8], id: u64, stream: bool, mut tr: Option<&mut Tracer>) {
        let started = Instant::now();
        let root = tr.as_mut().map(|t| t.open("request", None, id));
        let first_child = tr.as_ref().map_or(0, |t| t.spans.len());
        self.counters.bytes_in += raw.len() as u64;
        let (parsed, _) = step(&mut tr, "http.parse", root, id, || {
            http::read_request(&mut BufReader::new(raw))
        });
        let Ok(parsed) = parsed else {
            self.errors.push(format!("request {id}: unparsable"));
            return;
        };
        let (api, _) = step(&mut tr, "api.decode", root, id, || {
            serde_json::from_slice::<ExpandRequest>(&parsed.body)
        });
        let Ok(api) = api else {
            self.errors.push(format!("request {id}: undecodable"));
            return;
        };
        let engine = self.engine;
        let (resolved, _) = step(&mut tr, "engine.resolve", root, id, || engine.resolve(&api));
        let Ok((method, query, top_k)) = resolved else {
            self.errors.push(format!("request {id}: rejected"));
            return;
        };
        let (expanded, span) = step(&mut tr, "engine.expand", root, id, || {
            engine.expand(method, &query, top_k)
        });
        let Ok((list, outcome)) = expanded else {
            self.errors.push(format!("request {id}: expansion failed"));
            return;
        };
        if let (Some(t), Some(s)) = (tr.as_mut(), span) {
            t.spans[s].name = match outcome {
                CacheOutcome::Hit => "engine.expand_hit",
                CacheOutcome::Miss => "engine.expand_miss",
            };
        }
        let kept_query = query.clone();
        let (body, _) = step(&mut tr, "api.encode", root, id, || {
            serde_json::to_vec(&ExpandResponse {
                method: method.name().to_string(),
                query,
                top_k,
                list: (*list).clone(),
            })
        });
        let Ok(body) = body else {
            self.errors.push(format!("request {id}: unencodable"));
            return;
        };
        let out = &mut self.out;
        out.clear();
        let _ = step(&mut tr, "http.write", root, id, || {
            http::write_json_response(
                out,
                200,
                &[("x-ultra-cache", outcome.header_value())],
                &body,
            )
        });
        self.counters.bytes_out += self.out.len() as u64;
        let elapsed_us = started.elapsed().as_nanos() as f64 / 1e3;
        if let (Some(t), Some(r)) = (tr.as_mut(), root) {
            t.close(r);
            if stream {
                let s = &t.spans;
                self.request_us
                    .push((s[r].end_ns - s[r].start_ns) as f64 / 1e3);
                self.layers_us.push(
                    s[first_child..]
                        .iter()
                        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e3)
                        .sum(),
                );
            }
        } else if stream {
            self.request_us.push(elapsed_us);
        }
        if outcome == CacheOutcome::Miss {
            self.breakdown(method, &kept_query, top_k, &list, id, tr);
        }
    }

    fn breakdown(
        &mut self,
        method: Method,
        query: &ultra_core::Query,
        top_k: usize,
        served: &RankedList,
        id: u64,
        mut tr: Option<&mut Tracer>,
    ) {
        let engine = self.engine;
        let world = engine.world();
        let root = tr.as_mut().map(|t| t.open("breakdown", None, id));
        match method {
            Method::RetExpan => {
                let (full, _) = step(&mut tr, "retexpan.expand", root, id, || {
                    engine.expand_uncached(method, query, top_k)
                });
                if full.ok().as_ref() != Some(served) {
                    self.errors
                        .push(format!("request {id}: expand_uncached differs from served"));
                }
                let ret = engine.retexpan();
                let (l0, _) = step(&mut tr, "retexpan.prelim", root, id, || {
                    ret.preliminary_list(world, query, None)
                });
                let (cands, _) = step(&mut tr, "ann.candidates", root, id, || {
                    Exhaustive.scored_candidates(&ret.reps, &query.pos_seeds, &Pool::global())
                });
                self.counters.entities_scored += cands.len() as u64;
                let (ranked, _) = step(&mut tr, "core.rank", root, id, || {
                    let kept = cands
                        .into_iter()
                        .filter(|&(e, _)| !query.is_seed(e))
                        .collect();
                    RankedList::from_scores(kept).truncated(ret.config.top_k)
                });
                if ranked != l0 {
                    self.errors.push(format!(
                        "request {id}: candidates + rank != preliminary_list"
                    ));
                }
                self.counters.l0_len += l0.len() as u64;
                if ret.config.rerank && !query.neg_seeds.is_empty() {
                    self.counters.neg_scored += l0.len() as u64;
                }
            }
            Method::GenExpan => {
                let (full, _) = step(&mut tr, "genexpan.expand", root, id, || {
                    engine.expand_uncached(method, query, top_k)
                });
                match full {
                    Ok(list) => {
                        if &list != served {
                            self.errors
                                .push(format!("request {id}: expand_uncached differs from served"));
                        }
                        self.counters.gen_list_len += list.len() as u64;
                        self.counters.gen_hallucinated +=
                            list.entities()
                                .filter(|e| e.index() >= world.num_entities())
                                .count() as u64;
                    }
                    Err(e) => self.errors.push(format!("request {id}: {e}")),
                }
                let ultra = &world.ultra_classes[query.ultra.index()];
                let (cfg, cooc) = (&self.gen_cfg.cot, self.cooc);
                let _ = step(&mut tr, "genexpan.cot", root, id, || {
                    cot::reason(cfg, world, cooc, ultra, &query.pos_seeds, &query.neg_seeds)
                });
            }
        }
        if let (Some(t), Some(r)) = (tr, root) {
            t.close(r);
        }
    }
}

/// The requests a replay sends: warm-up, the trace stream, then coverage.
fn replay_requests(w: &Workload, cat: &Catalog, seed: u64) -> (Vec<Request>, usize, usize) {
    let warm = w.warmup(cat, seed);
    let stream = w.stream(cat, seed, Phase::Trace, w.trace_requests);
    let other = if w.method == "retexpan" {
        "genexpan"
    } else {
        "retexpan"
    };
    let mut all = warm.clone();
    all.extend(stream.iter().cloned());
    all.extend(stream.iter().take(COVERAGE).cloned());
    all.extend(stream.iter().take(COVERAGE).map(|r| r.with_method(other)));
    (all, warm.len(), stream.len())
}

/// What one replay measured.
struct ReplayReport {
    counters: Counters,
    errors: Vec<String>,
    request_us: Vec<f64>,
    layers_us: Vec<f64>,
}

/// Replays `reqs` on two fresh engines, request by request in turn: plain
/// on `plain` (the overhead base) and traced on `traced`. Interleaving keeps
/// machine drift from favouring either side.
fn replay(
    plain: &ExpansionEngine,
    traced: &ExpansionEngine,
    cooc: &CoocIndex,
    reqs: &[Request],
    stream: std::ops::Range<usize>,
    tr: &mut Tracer,
) -> (ReplayReport, ReplayReport) {
    let replay = |engine| Replay {
        engine,
        cooc,
        gen_cfg: GenExpanConfig::default(),
        counters: Counters::default(),
        errors: Vec::new(),
        request_us: Vec::new(),
        layers_us: Vec::new(),
        out: Vec::with_capacity(16 * 1024),
    };
    let (mut a, mut b) = (replay(plain), replay(traced));
    for (i, req) in reqs.iter().enumerate() {
        let raw = req.raw();
        let (id, in_stream) = (i as u64, stream.contains(&i));
        // The second run of a request finds the caches warm: alternate.
        if i % 2 == 0 {
            a.serve(&raw, id, in_stream, None);
            b.serve(&raw, id, in_stream, Some(tr));
        } else {
            b.serve(&raw, id, in_stream, Some(tr));
            a.serve(&raw, id, in_stream, None);
        }
    }
    let report = |r: Replay| {
        let stats = r.engine.cache_stats();
        ReplayReport {
            counters: Counters {
                hits: stats.hits,
                misses: stats.misses,
                evictions: stats.evictions,
                ..r.counters
            },
            errors: r.errors,
            request_us: r.request_us,
            layers_us: r.layers_us,
        }
    };
    (report(a), report(b))
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e6
}

/// Loads the snapshot the way `ultrawiki serve --snapshot` does, one step
/// at a time, [`LOADS`] times; returns the last two engines.
fn load_engines(path: &Path, o: &mut Obj) -> Result<(ExpansionEngine, ExpansionEngine), String> {
    let mut read = Vec::new();
    let mut decode = Vec::new();
    let mut assemble = Vec::new();
    let mut engines = Vec::new();
    let mut size = 0;
    for _ in 0..LOADS {
        let t = Instant::now();
        let bytes = ultra_snap::read_bytes(path).map_err(|e| e.to_string())?;
        read.push(ms(t));
        let t = Instant::now();
        let snapshot = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
        decode.push(ms(t));
        let t = Instant::now();
        let engine = ExpansionEngine::from_snapshot(snapshot, SnapshotRuntime::default())
            .map_err(|e| e.to_string())?;
        assemble.push(ms(t));
        if engine.index_info().candidate_source != "exhaustive" {
            return Err("served snapshot must use the exhaustive candidate source".into());
        }
        size = bytes.len();
        if engines.is_empty() {
            let spans = ultra_snap::section_spans(&bytes).map_err(|e| e.to_string())?;
            for s in spans {
                let tag = String::from_utf8_lossy(&s.tag).to_ascii_lowercase();
                o.int(
                    &format!("snap.{tag}_bytes"),
                    (s.payload_end - s.payload_start) as u64,
                );
            }
        }
        engines.push(engine);
    }
    o.num("snap.read_ms", median(&read))
        .num("snap.decode_ms", median(&decode))
        .num("engine.from_snapshot_ms", median(&assemble))
        .int("snap.bytes", size as u64);
    let traced = engines.pop().ok_or("no engine")?;
    let plain = engines.pop().ok_or("no engine")?;
    Ok((plain, traced))
}

/// Rebuilds `build-index --profile tiny --methods retexpan,genexpan`
/// phase by phase through the library's public functions, writes the
/// snapshot to `out`, and returns its bytes.
fn build_phases(tr: &mut Tracer, out: &Path, o: &mut Obj) -> Result<Vec<u8>, String> {
    let root = Some(tr.open("build", None, 0));
    let span = |tr: &mut Tracer, name| tr.open(name, root, 0);

    let s = span(tr, "data.world");
    let world = World::generate(WorldConfig::tiny().with_seed(42)).map_err(|e| e.to_string())?;
    tr.close(s);
    let s = span(tr, "embed.encoder_init");
    let mut encoder = EntityEncoder::new(&world, EncoderConfig::default());
    tr.close(s);
    let s = span(tr, "embed.entity_prediction");
    encoder.train_entity_prediction(&world);
    tr.close(s);
    let s = span(tr, "embed.entity_embeddings");
    let reps = encoder.entity_embeddings(&world);
    tr.close(s);
    let s = span(tr, "genexpan.train");
    let gen = GenExpan::train(&world, GenExpanConfig::default());
    tr.close(s);
    let s = span(tr, "text.bm25");
    let docs = world.lm_sentences();
    let bm25 = Bm25Index::build(docs.iter().map(Vec::as_slice), Bm25Params::default());
    tr.close(s);
    let s = span(tr, "snap.encode");
    let num_entities = world.num_entities();
    let snapshot = Snapshot {
        meta: SnapshotMeta {
            profile: "tiny".into(),
            seed: 42,
            world_fingerprint: world.fingerprint(),
            num_entities,
            num_queries: world.ultra_classes.iter().map(|u| u.queries.len()).sum(),
            num_docs: bm25.num_docs(),
            encoder: EncoderConfig::default(),
            retexpan: RetExpanConfig {
                ann: AnnSpec::Exhaustive.resolve(num_entities),
                ..RetExpanConfig::default()
            },
            genexpan_enabled: true,
        },
        reps,
        lm: Some(gen.lm().clone()),
        trie: Some(gen.trie().clone()),
        bm25,
        ivf: None,
    };
    let bytes = snapshot.to_bytes();
    tr.close(s);
    let s = span(tr, "snap.write");
    ultra_snap::write_bytes(out, &bytes).map_err(|e| e.to_string())?;
    tr.close(s);
    if let Some(r) = root {
        tr.close(r);
    }
    o.int("build.world_entities", num_entities as u64)
        .int("build.world_sentences", world.corpus.len() as u64)
        .int("build.snapshot_bytes", bytes.len() as u64);
    Ok(bytes)
}

pub struct TraceArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// The snapshot the workload serves.
    pub snapshot: &'a Path,
    /// `build-index` output the phase-by-phase rebuild must reproduce.
    pub build_ref: &'a Path,
    /// Where the rebuild writes its snapshot.
    pub build_out: &'a Path,
    pub spans_out: &'a Path,
}

fn p50(tr: &Tracer, name: &str) -> f64 {
    median(&tr.durations_us(name))
}

/// Runs the traced run and returns the flat report plus failed checks.
pub fn run(args: &TraceArgs) -> (Obj, Vec<String>) {
    let mut o = Obj::default();
    let mut errors = Vec::new();
    let mut tr = Tracer::new();

    // Offline build, phase by phase; must reproduce `build-index` bytes.
    match build_phases(&mut tr, args.build_out, &mut o) {
        Ok(bytes) => {
            let reference = std::fs::read(args.build_ref).unwrap_or_default();
            if bytes != reference {
                errors.push(format!(
                    "phase-by-phase rebuild ({} bytes) differs from build-index ({} bytes)",
                    bytes.len(),
                    reference.len()
                ));
            }
            o.str(
                "build.fingerprint",
                &format!("{:016x}", ultra_snap::file_fingerprint(&bytes)),
            );
        }
        Err(e) => errors.push(format!("rebuild failed: {e}")),
    }
    let mut phase_ms = 0.0;
    for (span, key) in [
        ("data.world", "data.world_ms"),
        ("embed.encoder_init", "embed.encoder_init_ms"),
        ("embed.entity_prediction", "embed.entity_prediction_ms"),
        ("embed.entity_embeddings", "embed.entity_embeddings_ms"),
        ("genexpan.train", "genexpan.train_ms"),
        ("text.bm25", "text.bm25_ms"),
        ("snap.encode", "snap.encode_ms"),
        ("snap.write", "snap.write_ms"),
    ] {
        let v = tr.durations_us(span).iter().sum::<f64>() / 1e3;
        phase_ms += v;
        o.num(key, v);
    }
    o.num("build.phase_sum_ms", phase_ms);

    // Snapshot load, then the request stream on two fresh engines: once
    // plain (the overhead base), once traced.
    let (plain, traced) = match load_engines(args.snapshot, &mut o) {
        Ok(pair) => pair,
        Err(e) => {
            errors.push(format!("snapshot load failed: {e}"));
            return (o, errors);
        }
    };
    let w = args.workload;
    let cat = Catalog::of(plain.world());
    let cooc = CoocIndex::build(plain.world());
    let (reqs, warm, n) = replay_requests(&w, &cat, args.seed);
    let stream = warm..warm + n;
    let (base, traced_run) = replay(&plain, &traced, &cooc, &reqs, stream, &mut tr);
    drop((plain, traced));
    errors.extend(base.errors);
    errors.extend(traced_run.errors);
    if base.counters != traced_run.counters {
        errors.push(format!(
            "work counters differ between replays: {:?} vs {:?}",
            base.counters, traced_run.counters
        ));
    }
    let c = &traced_run.counters;
    for (key, span) in [
        ("http.parse_us", "http.parse"),
        ("http.write_us", "http.write"),
        ("api.decode_us", "api.decode"),
        ("api.encode_us", "api.encode"),
        ("engine.resolve_us", "engine.resolve"),
        ("engine.expand_hit_us", "engine.expand_hit"),
        ("engine.expand_miss_us", "engine.expand_miss"),
        ("ann.candidates_us", "ann.candidates"),
        ("core.rank_us", "core.rank"),
        ("retexpan.prelim_us", "retexpan.prelim"),
        ("retexpan.expand_us", "retexpan.expand"),
        ("genexpan.expand_us", "genexpan.expand"),
        ("genexpan.cot_us", "genexpan.cot"),
    ] {
        o.num(key, p50(&tr, span));
    }
    // Rerank self time: each expand minus the preliminary list of the same
    // request.
    let by_request = |name: &str| -> BTreeMap<u64, f64> {
        tr.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, (s.end_ns - s.start_ns) as f64 / 1e3))
            .collect()
    };
    let prelim = by_request("retexpan.prelim");
    let rerank: Vec<f64> = by_request("retexpan.expand")
        .iter()
        .filter_map(|(r, e)| prelim.get(r).map(|p| e - p))
        .collect();
    let lookups = c.hits + c.misses;
    o.num("retexpan.rerank_us", median(&rerank))
        .int("http.bytes_in", c.bytes_in)
        .int("http.bytes_out", c.bytes_out)
        .int("cache.hits", c.hits)
        .int("cache.misses", c.misses)
        .int("cache.evictions", c.evictions)
        .num("cache.hit_ratio", c.hits as f64 / lookups.max(1) as f64)
        .int("ann.entities_scored", c.entities_scored)
        .int("retexpan.l0_len", c.l0_len)
        .int("retexpan.neg_scored", c.neg_scored)
        .int("genexpan.list_len", c.gen_list_len)
        .int("genexpan.hallucinated", c.gen_hallucinated);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    o.num("attr.inproc_mean_us", mean(&traced_run.layers_us))
        .num("trace.request_traced_us", mean(&traced_run.request_us))
        .num("trace.request_plain_us", mean(&base.request_us))
        .num(
            "trace.overhead_ratio",
            mean(&traced_run.request_us) / mean(&base.request_us).max(1e-9),
        )
        .int("trace.spans", tr.spans.len() as u64);
    if let Err(e) = tr.write_jsonl(args.spans_out) {
        errors.push(format!("writing spans failed: {e}"));
    }
    (o, errors)
}
