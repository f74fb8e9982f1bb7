//! The three workloads: their seeded inputs and their sizes.
//!
//! Every input is a pure function of the `--seed` argument (and, for
//! `miss-prove`, of the connection and request index), so the same seed
//! replays the same requests. The server only ever sees the generated
//! graphs.

use dpc_graph::{generators, Graph};
use dpc_service::wire::Request;
use dpc_service::SchemeId;
use std::collections::HashSet;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Round-robin certify requests over 8 large graphs, all resident in
    /// the hot cache tier: the prover does nothing, codec and bytes do
    /// all the work.
    HitLarge,
    /// Certify requests for graphs the server has never seen: the
    /// prover and the verification round do almost all the work.
    MissProve,
    /// Zipf-drawn, pipelined requests over a keyspace of small graphs
    /// under four schemes, with a hot tier smaller than the keyspace
    /// over a pre-filled segment store.
    MixedSmall,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::HitLarge,
        Workload::MissProve,
        Workload::MixedSmall,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HitLarge => "hit-large",
            Workload::MissProve => "miss-prove",
            Workload::MixedSmall => "mixed-small",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests each connection keeps in flight.
    pub fn pipeline(self, sizes: &Sizes) -> usize {
        match self {
            Workload::MixedSmall => sizes.pipeline,
            _ => 1,
        }
    }
}

/// Input sizes and load shape. [`Sizes::full`] is the benchmark;
/// [`Sizes::tiny`] keeps every code path but finishes in a second.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Client connections (closed loop, one thread each).
    pub connections: usize,
    /// Requests in flight per connection on `mixed-small`.
    pub pipeline: usize,
    /// Setups per run; `setup_s` is their median.
    pub setups: usize,
    /// `hit-large`: side of the grid graphs.
    pub hit_grid_side: u32,
    /// `hit-large`: node count of the triangulations and random planar graphs.
    pub hit_n: u32,
    /// `miss-prove`: the smaller planar node count.
    pub miss_small_n: u32,
    /// `miss-prove`: the larger planar node count.
    pub miss_large_n: u32,
    /// `miss-prove`: side of the grid graphs.
    pub miss_grid_side: u32,
    /// `mixed-small`: number of distinct keys.
    pub keys: usize,
    /// `mixed-small`: node count of each graph.
    pub small_n: u32,
    /// `mixed-small`: Zipf exponent of the key popularity.
    pub zipf_s: f64,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub fn full() -> Sizes {
        Sizes {
            connections: 2,
            pipeline: 8,
            setups: 3,
            hit_grid_side: 100,
            hit_n: 8192,
            miss_small_n: 2048,
            miss_large_n: 8192,
            miss_grid_side: 64,
            keys: 4096,
            small_n: 256,
            zipf_s: 1.1,
        }
    }

    /// Smoke-test sizes: the same workloads on toy graphs.
    pub fn tiny() -> Sizes {
        Sizes {
            connections: 2,
            pipeline: 4,
            setups: 2,
            hit_grid_side: 6,
            hit_n: 40,
            miss_small_n: 24,
            miss_large_n: 48,
            miss_grid_side: 5,
            keys: 64,
            small_n: 24,
            zipf_s: 1.1,
        }
    }
}

/// One certify request and what its answer must look like.
pub struct Item {
    /// The request, kept encoded-on-demand so every send pays the
    /// client's encode.
    pub req: Request,
    /// Generator family, for the report.
    pub family: &'static str,
    /// True when the scheme's prover must decline the graph.
    pub declines: bool,
}

impl Item {
    fn certify(graph: Graph, scheme: SchemeId, family: &'static str, declines: bool) -> Item {
        Item {
            req: Request::Certify {
                graph,
                bypass_cache: false,
                cached_only: false,
                summary: false,
                scheme,
            },
            family,
            declines,
        }
    }

    /// The graph being certified.
    pub fn graph(&self) -> &Graph {
        match &self.req {
            Request::Certify { graph, .. } => graph,
            _ => unreachable!("benchmark items are certify requests"),
        }
    }

    /// The scheme the request addresses.
    pub fn scheme(&self) -> SchemeId {
        match &self.req {
            Request::Certify { scheme, .. } => *scheme,
            _ => unreachable!("benchmark items are certify requests"),
        }
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own draws
/// (the graph generators carry their own seeded RNG).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a function of `parts`.
    pub fn new(parts: &[u64]) -> Rng {
        let mut r = Rng(0x6a09_e667_f3bc_c908);
        for &p in parts {
            r.0 ^= p;
            r.next_u64();
        }
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A copy of `g` with `n` distinct random identifiers from `0..n^2`
/// (the paper's polynomial identifier range). Fresh identifiers make a
/// fresh cache key for an otherwise identical structure.
fn fresh_ids(g: &Graph, rng: &mut Rng) -> Graph {
    let n = g.node_count() as u64;
    let mut seen = HashSet::with_capacity(n as usize);
    let mut ids = Vec::with_capacity(n as usize);
    while ids.len() < n as usize {
        let id = rng.below(n * n);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    g.with_ids(ids)
}

/// `hit-large`: two grids (each with its own identifiers), three
/// stacked triangulations and three random planar graphs.
pub fn hit_large_items(seed: u64, sizes: &Sizes) -> Vec<Item> {
    let mut rng = Rng::new(&[seed, 1]);
    let side = sizes.hit_grid_side;
    let n = sizes.hit_n;
    let mut items = Vec::with_capacity(8);
    for _ in 0..2 {
        let g = fresh_ids(&generators::grid(side, side), &mut rng);
        items.push(Item::certify(g, SchemeId::PLANARITY, "grid", false));
    }
    for _ in 0..3 {
        let g = generators::stacked_triangulation(n, rng.next_u64());
        items.push(Item::certify(
            g,
            SchemeId::PLANARITY,
            "triangulation",
            false,
        ));
    }
    for _ in 0..3 {
        let g = generators::random_planar(n, 0.5, rng.next_u64());
        items.push(Item::certify(
            g,
            SchemeId::PLANARITY,
            "random_planar",
            false,
        ));
    }
    items
}

/// Requests per `miss-prove` cycle. Half of each cycle is small planar
/// graphs, so the median lands inside one size class instead of on the
/// boundary between two.
pub const MISS_CYCLE: u64 = 8;

/// `miss-prove`: request `index` of connection `conn`. Each cycle of
/// [`MISS_CYCLE`] requests holds four small and two large planar graphs
/// (¾), one grid (⅛) and one planted Kuratowski graph the prover must
/// decline (⅛). Every graph is fresh, so every request misses.
pub fn miss_item(seed: u64, conn: u64, index: u64, sizes: &Sizes) -> Item {
    let mut rng = Rng::new(&[seed, 2, conn, index]);
    let s = rng.next_u64();
    let (small, large) = (sizes.miss_small_n, sizes.miss_large_n);
    let planar = |g, family| Item::certify(g, SchemeId::PLANARITY, family, false);
    match index % MISS_CYCLE {
        0 | 4 => planar(generators::stacked_triangulation(small, s), "triangulation"),
        1 | 5 => planar(generators::random_planar(small, 0.5, s), "random_planar"),
        2 => planar(generators::stacked_triangulation(large, s), "triangulation"),
        6 => planar(generators::random_planar(large, 0.5, s), "random_planar"),
        3 => {
            let side = sizes.miss_grid_side;
            planar(fresh_ids(&generators::grid(side, side), &mut rng), "grid")
        }
        _ => Item::certify(
            generators::planted_kuratowski(small, s & 1 == 0, 2, s),
            SchemeId::PLANARITY,
            "planted_kuratowski",
            true,
        ),
    }
}

/// `mixed-small`: key `k` of the keyspace. The class follows the key
/// (`k mod 10`): 70% planarity instances (triangulations and random
/// planar graphs), 10% each of path-outerplanar, bipartite and
/// non-planarity instances — all members of their scheme's class.
/// Because key `k` is also popularity rank `k` ([`Zipf`]), every seed
/// puts the same classes at the same popularity; the seed changes the
/// graphs.
pub fn mixed_item(seed: u64, key: u64, sizes: &Sizes) -> Item {
    let mut rng = Rng::new(&[seed, 3, key]);
    let s = rng.next_u64();
    let n = sizes.small_n;
    match key % 10 {
        0 | 2 | 4 | 6 => {
            let g = generators::stacked_triangulation(n, s);
            Item::certify(g, SchemeId::PLANARITY, "triangulation", false)
        }
        1 | 3 | 5 => {
            let g = generators::random_planar(n, 0.5, s);
            Item::certify(g, SchemeId::PLANARITY, "random_planar", false)
        }
        7 => {
            let g = generators::random_path_outerplanar(n, n / 2, s);
            Item::certify(g, SchemeId::PATH_OUTERPLANAR, "path_outerplanar", false)
        }
        8 => {
            let side = (n as f64).sqrt().round().max(2.0) as u32;
            let g = fresh_ids(&generators::grid(side, side), &mut rng);
            Item::certify(g, SchemeId::BIPARTITE, "grid", false)
        }
        _ => {
            let g = generators::planted_kuratowski(n.saturating_sub(12).max(4), s & 1 == 0, 1, s);
            Item::certify(g, SchemeId::NON_PLANARITY, "planted_kuratowski", false)
        }
    }
}

/// `mixed-small`: whether key `k` is pre-filled into the store —
/// alternating blocks of ten keys, so half the keyspace, with every
/// class and every popularity band represented.
pub fn mixed_prefilled(key: usize) -> bool {
    (key / 10).is_multiple_of(2)
}

/// Zipf(s) over keys `0..keys`: key `k` has popularity rank `k`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `keys` keys.
    pub fn new(keys: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=keys)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
