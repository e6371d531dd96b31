//! Workloads and their seeded request streams.
//!
//! Everything a run sends is a pure function of `(workload, seed, phase)`
//! and the served world's class structure, generated here with the
//! benchmark's own PRNG so a change to the program's RNG or serde code can
//! never change what the benchmark asks for. Request bodies are written by
//! hand for the same reason.

use ultra_data::World;

/// A SplitMix64 generator: tiny, seedable, and owned by the benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// `k` distinct items of `pool`, in draw order (partial Fisher–Yates).
    pub fn sample(&mut self, pool: &[u32], k: usize) -> Vec<u32> {
        let mut rest = pool.to_vec();
        let k = k.min(rest.len());
        for i in 0..k {
            let j = i + self.below(rest.len() - i);
            rest.swap(i, j);
        }
        rest.truncate(k);
        rest
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The part of a world the request generators read: each ultra-class's
/// positive and negative targets, and how many generated queries exist.
#[derive(Clone, Debug)]
pub struct Catalog {
    pub classes: Vec<(Vec<u32>, Vec<u32>)>,
    pub num_queries: usize,
}

impl Catalog {
    pub fn of(world: &World) -> Self {
        let ids = |v: &[ultra_core::EntityId]| v.iter().map(|e| e.index() as u32).collect();
        Catalog {
            classes: world
                .ultra_classes
                .iter()
                .map(|u| (ids(&u.pos_targets), ids(&u.neg_targets)))
                .collect(),
            num_queries: world.ultra_classes.iter().map(|u| u.queries.len()).sum(),
        }
    }
}

/// Which query a request names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// Replay of the world's generated query `query_index`.
    Replay(usize),
    /// A fresh explicit query.
    Fresh {
        ultra: u32,
        pos: Vec<u32>,
        neg: Vec<u32>,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub method: &'static str,
    pub target: Target,
    pub top_k: usize,
}

fn join(ids: &[u32]) -> String {
    ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

impl Request {
    /// The JSON body of `POST /expand`.
    pub fn body(&self) -> String {
        match &self.target {
            Target::Replay(i) => format!(
                r#"{{"method":"{}","query_index":{i},"top_k":{}}}"#,
                self.method, self.top_k
            ),
            Target::Fresh { ultra, pos, neg } => format!(
                r#"{{"method":"{}","query":{{"ultra":{ultra},"pos_seeds":[{}],"neg_seeds":[{}]}},"top_k":{}}}"#,
                self.method,
                join(pos),
                join(neg),
                self.top_k
            ),
        }
    }

    /// The complete HTTP/1.1 request as the load generator writes it.
    pub fn raw(&self) -> Vec<u8> {
        let body = self.body();
        format!(
            "POST /expand HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// The same query through the other method (trace coverage).
    pub fn with_method(&self, method: &'static str) -> Request {
        Request {
            method,
            ..self.clone()
        }
    }
}

/// Seeds per side, as the paper samples them.
pub const SEEDS_MIN: usize = 3;
pub const SEEDS_MAX: usize = 5;
/// Result cutoff of every request.
pub const TOP_K: usize = 50;
/// Zipf exponent of `ret-hot` query popularity.
pub const ZIPF_S: f64 = 1.0;

/// A fresh query: the class comes from `class`, seeds are 3–5 distinct
/// positive targets and 3–5 distinct negative targets of that class.
pub fn fresh_query(cat: &Catalog, class: usize, rng: &mut Rng) -> Target {
    let (pos, neg) = &cat.classes[class];
    let k_pos = rng.range(SEEDS_MIN, SEEDS_MAX);
    let k_neg = rng.range(SEEDS_MIN, SEEDS_MAX);
    Target::Fresh {
        ultra: class as u32,
        pos: rng.sample(pos, k_pos),
        neg: rng.sample(neg, k_neg),
    }
}

/// Ultra-classes in shuffled rounds: each class once per round, so every
/// request's class is uniform and a short stream still covers the classes
/// evenly (GenExpan's cost differs a lot between classes).
pub fn class_sequence(num_classes: usize, n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    let mut round: Vec<usize> = (0..num_classes).collect();
    while out.len() < n {
        rng.shuffle(&mut round);
        out.extend(round.iter().take(n - out.len()));
    }
    out
}

/// Zipf-popular replays: popularity rank `r` (1-based) has weight `r^-s`,
/// and a seeded permutation decides which query holds which rank.
pub fn zipf_replays(num_queries: usize, n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut by_rank: Vec<usize> = (0..num_queries).collect();
    rng.shuffle(&mut by_rank);
    let mut cdf = Vec::with_capacity(num_queries);
    let mut acc = 0.0;
    for r in 1..=num_queries {
        acc += (r as f64).powf(-ZIPF_S);
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let x = rng.next_f64() * acc;
            let rank = cdf.partition_point(|&c| c <= x).min(num_queries - 1);
            by_rank[rank]
        })
        .collect()
}

/// Seconds from the start of the open-loop phase at which each request is
/// due: a Poisson process of `rate` per second.
pub fn poisson_schedule(rate: f64, n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Replays of the world's own queries with Zipf popularity.
    HotReplay,
    /// Fresh explicit queries.
    Fresh,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub method: &'static str,
    pub kind: Kind,
    /// Open-loop arrival rate (requests per second).
    pub rate: f64,
    /// Latency limit of `slo_ok_ratio` (ms).
    pub limit_ms: f64,
    /// Rough closed-loop capacity (requests per second); sizes the
    /// pre-generated closed-loop stream only.
    pub capacity: f64,
    /// Requests replayed by the traced in-process run.
    pub trace_requests: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ret-hot",
        method: "retexpan",
        kind: Kind::HotReplay,
        rate: 1000.0,
        limit_ms: 2.0,
        capacity: 12_000.0,
        trace_requests: 3000,
    },
    Workload {
        name: "ret-cold",
        method: "retexpan",
        kind: Kind::Fresh,
        rate: 400.0,
        limit_ms: 5.0,
        capacity: 6000.0,
        // More than the server's 4096-entry cache, so inserts evict.
        trace_requests: 5000,
    },
    Workload {
        name: "gen-cold",
        method: "genexpan",
        kind: Kind::Fresh,
        rate: 15.0,
        limit_ms: 150.0,
        capacity: 150.0,
        trace_requests: 40,
    },
    Workload {
        name: "build",
        method: "retexpan",
        kind: Kind::Fresh,
        rate: 500.0,
        limit_ms: 5.0,
        capacity: 8000.0,
        trace_requests: 1000,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The phases of a run, each with its own stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Open,
    Closed,
    Trace,
}

impl Phase {
    fn salt(self) -> u64 {
        match self {
            Phase::Warmup => 0x5741_524D,
            Phase::Open => 0x4F50_454E,
            Phase::Closed => 0x434C_4F53,
            Phase::Trace => 0x5452_4143,
        }
    }
}

impl Workload {
    /// `n` requests of `phase` for `seed`.
    pub fn stream(&self, cat: &Catalog, seed: u64, phase: Phase, n: usize) -> Vec<Request> {
        let mut rng = Rng::new(seed ^ phase.salt().rotate_left(32));
        let targets: Vec<Target> = match self.kind {
            Kind::HotReplay => zipf_replays(cat.num_queries, n, &mut rng)
                .into_iter()
                .map(Target::Replay)
                .collect(),
            Kind::Fresh => class_sequence(cat.classes.len(), n, &mut rng)
                .into_iter()
                .map(|c| fresh_query(cat, c, &mut rng))
                .collect(),
        };
        targets
            .into_iter()
            .map(|target| Request {
                method: self.method,
                target,
                top_k: TOP_K,
            })
            .collect()
    }

    /// Requests sent before timing. `ret-hot` replays every generated query
    /// once, so the timed phases are cache hits.
    pub fn warmup(&self, cat: &Catalog, seed: u64) -> Vec<Request> {
        match self.kind {
            Kind::HotReplay => (0..cat.num_queries)
                .map(|i| Request {
                    method: self.method,
                    target: Target::Replay(i),
                    top_k: TOP_K,
                })
                .collect(),
            Kind::Fresh => {
                let n = ((self.rate * 0.2) as usize).clamp(4, 200);
                self.stream(cat, seed, Phase::Warmup, n)
            }
        }
    }

    /// The open-loop due times (seconds) for a phase of `secs` seconds:
    /// a fixed sample count of `rate * secs`.
    pub fn schedule(&self, seed: u64, secs: f64) -> Vec<f64> {
        let n = (self.rate * secs).round().max(1.0) as usize;
        let mut rng = Rng::new(seed ^ 0x5343_4845_4455_4C45);
        poisson_schedule(self.rate, n, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog {
            classes: (0..7u32)
                .map(|c| {
                    let pos = (0..6 + c).map(|i| 1000 * c + i).collect();
                    let neg = (0..4 + c).map(|i| 1000 * c + 500 + i).collect();
                    (pos, neg)
                })
                .collect(),
            num_queries: 21,
        }
    }

    #[test]
    fn same_seed_same_stream_and_schedule() {
        let cat = catalog();
        for w in WORKLOADS {
            for phase in [Phase::Warmup, Phase::Open, Phase::Closed, Phase::Trace] {
                assert_eq!(w.stream(&cat, 7, phase, 300), w.stream(&cat, 7, phase, 300));
            }
            assert_eq!(w.warmup(&cat, 7), w.warmup(&cat, 7));
            assert_eq!(w.schedule(7, 2.0), w.schedule(7, 2.0));
        }
    }

    #[test]
    fn different_seed_different_stream_and_schedule() {
        let cat = catalog();
        for w in WORKLOADS {
            assert_ne!(
                w.stream(&cat, 7, Phase::Open, 300),
                w.stream(&cat, 8, Phase::Open, 300)
            );
            assert_ne!(w.schedule(7, 2.0), w.schedule(8, 2.0));
        }
    }

    #[test]
    fn phases_draw_distinct_streams() {
        let cat = catalog();
        let w = workload("ret-cold").unwrap();
        assert_ne!(
            w.stream(&cat, 7, Phase::Open, 100),
            w.stream(&cat, 7, Phase::Closed, 100)
        );
    }

    #[test]
    fn fresh_seeds_come_from_the_chosen_class() {
        let cat = catalog();
        let w = workload("gen-cold").unwrap();
        for seed in 0..20 {
            for req in w.stream(&cat, seed, Phase::Open, 200) {
                let Target::Fresh { ultra, pos, neg } = req.target else {
                    panic!("fresh workload produced a replay");
                };
                let (p, n) = &cat.classes[ultra as usize];
                assert!((SEEDS_MIN..=SEEDS_MAX).contains(&pos.len()));
                assert!((SEEDS_MIN..=SEEDS_MAX).contains(&neg.len()));
                assert!(pos.iter().all(|e| p.contains(e)), "{pos:?} not in {p:?}");
                assert!(neg.iter().all(|e| n.contains(e)), "{neg:?} not in {n:?}");
                let mut distinct = pos.clone();
                distinct.extend(&neg);
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), pos.len() + neg.len());
            }
        }
    }

    #[test]
    fn fresh_seeds_on_a_real_world_stay_in_their_class() {
        let world = World::generate(ultra_data::WorldConfig::tiny()).unwrap();
        let cat = Catalog::of(&world);
        let w = workload("ret-cold").unwrap();
        for req in w.stream(&cat, 3, Phase::Open, 500) {
            let Target::Fresh { ultra, pos, neg } = req.target else {
                panic!("fresh workload produced a replay");
            };
            let u = &world.ultra_classes[ultra as usize];
            assert!(pos
                .iter()
                .all(|&e| u.pos_targets.contains(&ultra_core::EntityId::new(e))));
            assert!(neg
                .iter()
                .all(|&e| u.neg_targets.contains(&ultra_core::EntityId::new(e))));
        }
    }

    #[test]
    fn classes_are_covered_evenly() {
        let mut rng = Rng::new(1);
        let seq = class_sequence(7, 70, &mut rng);
        for c in 0..7 {
            assert_eq!(seq.iter().filter(|&&x| x == c).count(), 10);
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let mut rng = Rng::new(5);
        let picks = zipf_replays(237, 20_000, &mut rng);
        assert!(picks.iter().all(|&q| q < 237));
        let mut counts = vec![0usize; 237];
        for q in picks {
            counts[q] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 1 holds 1/H(237) ≈ 16% of the mass under s = 1.
        assert!(counts[0] > 2_500 && counts[0] < 4_000, "{}", counts[0]);
        assert!(counts[0] > 5 * counts[9]);
    }

    #[test]
    fn schedule_has_the_fixed_count_and_rate() {
        let w = workload("ret-cold").unwrap();
        let due = w.schedule(11, 10.0);
        assert_eq!(due.len(), (w.rate * 10.0) as usize);
        assert!(due.windows(2).all(|p| p[0] < p[1]));
        let span = due[due.len() - 1];
        assert!((span - 10.0).abs() < 0.5, "{span}");
    }

    #[test]
    fn bodies_are_the_api_shape() {
        let r = Request {
            method: "genexpan",
            target: Target::Fresh {
                ultra: 4,
                pos: vec![1, 2, 3],
                neg: vec![9],
            },
            top_k: 50,
        };
        let req: ultra_serve::ExpandRequest = serde_json::from_str(&r.body()).unwrap();
        assert_eq!(req.method.as_deref(), Some("genexpan"));
        assert_eq!(req.top_k, Some(50));
        let q = req.query.unwrap();
        assert_eq!(q.ultra.index(), 4);
        assert_eq!(q.pos_seeds.len(), 3);
        let replay: ultra_serve::ExpandRequest = serde_json::from_str(
            &Request {
                method: "retexpan",
                target: Target::Replay(17),
                top_k: 50,
            }
            .body(),
        )
        .unwrap();
        assert_eq!(replay.query_index, Some(17));
    }
}
