//! Client-routed clustering: rendezvous hashing across `dpc serve`
//! nodes, with failover.
//!
//! Certificates are content-addressed (`uvarint(scheme id)` + the
//! canonical [`dpc_graph::canon::graph_hash`]), and the client
//! computes that key deterministically *before* opening any
//! connection — so request routing needs no coordinator and no
//! gossip. A [`ClusterClient`] holds N server addresses, ranks them
//! per key by rendezvous (highest-random-weight) hashing, sends each
//! request to the top-ranked node, and fails over down the ranking
//! when a node cannot be reached. Servers stay share-nothing on the
//! request path: each node's cache and store simply fill with the
//! keys the ring assigns it.
//!
//! With a replication factor above one
//! ([`ClusterClient::with_replication`]) each certificate lives on
//! the top-k nodes of its ranking instead of just the owner: fresh
//! proves are StorePush-copied to the other replicas, reads walk the
//! top-k with cheap cached-only probes and **read-repair** any
//! higher-ranked replica that missed, and the servers' own
//! anti-entropy sweep (`dpc serve --peers`) converges whatever the
//! client could not reach — so killing any single node loses no
//! cached certificate and forces no re-prove.
//!
//! Rendezvous hashing (rather than a ring of virtual tokens) keeps
//! the stability property the store layer wants: when a node leaves,
//! only *its* keys remap (each surviving node keeps its rank-1 set),
//! so a drained node's segment files can be
//! [`crate::store::SegmentStore::merge_from`]-d into any survivor and
//! every certificate stays exactly one `get` away.
//!
//! The failure model is connection-level: connect errors and broken
//! *or unparseable* streams fail over to the next-ranked node — once
//! a frame cannot be decoded the stream offset is untrustworthy, so a
//! version-skewed peer is handled like a dead one, and retrying is
//! always safe because requests are idempotent (the same key proves
//! the same certificate anywhere). An error *response* from a
//! reachable server is a real answer and is returned, not retried.
//! Per-request failover is tracked in [`ClusterStats`], the
//! client-side mirror of the servers' Stats.

use crate::client::{
    AuditOptions, CertifyOptions, CheckOptions, Client, GenOptions, InteractiveOptions,
    SoundnessOptions,
};
use crate::metrics::{SlowLogEntry, StatsSnapshot};
use crate::registry::SchemeId;
use crate::store::{RecordKind, StoreRecord};
use crate::wire::{self, RequestRef, Response, WireError};
use dpc_core::batch::BatchSummary;
use dpc_core::harness::Outcome;
use dpc_graph::canon;
use dpc_graph::Graph;
use dpc_runtime::put_uvarint;
use std::io;
use std::time::{Duration, Instant};

/// Domain separator between the routing key and the node address in
/// a rendezvous score (neither side can fake a boundary shift).
const SCORE_SEP: u8 = 0xa5;

/// An ordered set of node addresses with deterministic per-key
/// ranking. The pure routing core of [`ClusterClient`] — tests and
/// tools can rank keys without opening a single connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    addrs: Vec<String>,
}

impl Ring {
    /// A ring over the given node addresses. Order does not affect
    /// routing (scores are per-address), but duplicates would make
    /// one node own every rank of its keys — silently disabling
    /// failover — so they are rejected, as is an empty set. The
    /// duplicate check is *literal*: list each server by exactly one
    /// canonical address, because aliases of the same machine
    /// (`localhost:4700` vs `127.0.0.1:4700`, hostname vs IP) cannot
    /// be detected and would quietly shrink the effective ring.
    pub fn new<I, S>(addrs: I) -> Result<Ring, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let addrs: Vec<String> = addrs
            .into_iter()
            .map(Into::into)
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        if addrs.is_empty() {
            return Err("a cluster needs at least one node address".to_string());
        }
        let mut seen = addrs.clone();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!(
                "duplicate node address {:?} (each node may appear once)",
                seen.windows(2).find(|w| w[0] == w[1]).expect("dup")[0]
            ));
        }
        Ok(Ring { addrs })
    }

    /// The node addresses, in construction order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True for a ring with no nodes (unconstructible via [`Ring::new`]).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The rendezvous score of `key` on `addr`: FNV-1a-128 over
    /// `key ‖ 0xa5 ‖ addr`. Deterministic across processes, so every
    /// client ranks identically.
    pub fn score(key: &[u8], addr: &str) -> u128 {
        let mut buf = Vec::with_capacity(key.len() + addr.len() + 1);
        buf.extend_from_slice(key);
        buf.push(SCORE_SEP);
        buf.extend_from_slice(addr.as_bytes());
        canon::hash_bytes(&buf).0
    }

    /// Node indices ranked for `key`, best first: the failover order.
    /// Ties (never observed with distinct addresses, but the order
    /// must be total) break toward the lexicographically smaller
    /// address.
    pub fn rank(&self, key: &[u8]) -> Vec<usize> {
        let mut scored: Vec<(u128, usize)> = self
            .addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| (Self::score(key, addr), i))
            .collect();
        scored.sort_unstable_by(|a, b| {
            b.0.cmp(&a.0)
                .then_with(|| self.addrs[a.1].cmp(&self.addrs[b.1]))
        });
        scored.into_iter().map(|(_, i)| i).collect()
    }

    /// The owning (rank-1) node index for `key`.
    pub fn owner(&self, key: &[u8]) -> usize {
        self.rank(key)[0]
    }
}

/// The routing key of a graph-carrying request: `uvarint(scheme id)`
/// followed by the 128-bit canonical graph hash (structure *and*
/// identifiers — the same content the servers key their caches by),
/// little-endian.
pub fn graph_key(scheme: SchemeId, g: &Graph) -> Vec<u8> {
    let mut key = Vec::with_capacity(19);
    put_uvarint(&mut key, scheme.0 as u64);
    key.extend_from_slice(&canon::graph_hash(g).0.to_le_bytes());
    key
}

/// The routing key of a Gen request, which carries no graph: the
/// scheme id plus the generation parameters. Any node can generate,
/// but a stable key keeps repeat generations on one node's pipeline.
pub fn gen_key(scheme: SchemeId, family: &str, n: u32, seed: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(family.len() + 16);
    put_uvarint(&mut key, scheme.0 as u64);
    key.extend_from_slice(family.as_bytes());
    key.push(0);
    put_uvarint(&mut key, n as u64);
    put_uvarint(&mut key, seed);
    key
}

/// Deterministically picks `per_node` planar triangulations of `n`
/// nodes owned by each node of `ring`, by scanning seeds and
/// bucketing each graph under its rendezvous owner. Which keys a
/// node owns depends on its address (often an OS-assigned port), so
/// callers that must *cover* the ring — the spread/failover tests,
/// and `dpc bench-serve --nodes`, whose summary claims every node
/// served traffic — select their graphs through the pure ring
/// instead of hoping a blind sample lands everywhere. The seed range
/// starts at 10 000, far from the small seeds tests hand-pick for
/// fixed workloads, so a selected graph never duplicates one
/// (which would turn an expected fresh prove into a cache hit).
///
/// # Panics
///
/// If the seed budget (2000 seeds per node, at least 4000) cannot
/// cover the ring — which would take an astronomically skewed hash,
/// at any ring size, since the budget scales with the node count.
pub fn graphs_by_owner(ring: &Ring, per_node: usize, n: u32) -> Vec<Vec<Graph>> {
    let mut buckets: Vec<Vec<Graph>> = vec![Vec::new(); ring.len()];
    let budget = 4000u64.max(2000 * (ring.len() as u64 + per_node as u64));
    for seed in 10_000..10_000 + budget {
        if buckets.iter().all(|b| b.len() >= per_node) {
            break;
        }
        let g = dpc_graph::generators::stacked_triangulation(n, seed);
        let owner = ring.owner(&graph_key(SchemeId::PLANARITY, &g));
        if buckets[owner].len() < per_node {
            buckets[owner].push(g);
        }
    }
    assert!(
        buckets.iter().all(|b| b.len() >= per_node),
        "{budget} seeds cover every node of a {}-node ring",
        ring.len()
    );
    buckets
}

/// Client-side counters of one node, inside [`ClusterStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Node address (as configured).
    pub addr: String,
    /// Requests this node answered.
    pub routed: u64,
    /// Connection-level failures observed against this node (each one
    /// excluded it for the remainder of that request).
    pub failures: u64,
}

/// Client-side view of a cluster's traffic: where requests were
/// routed and how often the ranking had to fail over. This is *not*
/// server state — every process driving the ring keeps its own.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Requests that got an answer from some node.
    pub requests: u64,
    /// Fail-over hops: attempts that hit an unreachable node before
    /// a lower-ranked node answered.
    pub failovers: u64,
    /// Requests that exhausted every node without an answer.
    pub exhausted: u64,
    /// Certificates copied synchronously to the other top-k replicas
    /// after a fresh prove (replication factor > 1 only).
    pub replica_writes: u64,
    /// Cached hits served by a lower-ranked replica that triggered an
    /// asynchronous backfill of the replicas ranked above it.
    pub read_repairs: u64,
    /// Replica copies that failed (target unreachable or errored);
    /// the servers' anti-entropy sweep repairs these later.
    pub replica_errors: u64,
    /// Per-node counters, indexed like the ring's addresses.
    pub per_node: Vec<NodeStats>,
}

impl ClusterStats {
    fn new(addrs: &[String]) -> ClusterStats {
        ClusterStats {
            per_node: addrs
                .iter()
                .map(|a| NodeStats {
                    addr: a.clone(),
                    ..NodeStats::default()
                })
                .collect(),
            ..ClusterStats::default()
        }
    }

    /// Number of nodes that answered at least one request.
    pub fn nodes_used(&self) -> usize {
        self.per_node.iter().filter(|n| n.routed > 0).count()
    }
}

/// The result of one [`ClusterClient::certify_distributed`] sweep.
#[derive(Debug)]
pub struct DistributedReport {
    /// Per-graph answers, in input order: the measured outcome of a
    /// certified graph, or the decline reason / error text otherwise.
    pub results: Vec<Result<Outcome, String>>,
    /// [`BatchSummary::fold`] over the outcomes, in input order — the
    /// same integer fold a single node applies, so this summary is
    /// byte-identical to the sequential one over the same graphs.
    pub summary: BatchSummary,
    /// Nodes that answered at least one certify in this sweep.
    pub nodes_used: usize,
    /// Graphs certified by the fleet (outcome obtained).
    pub delegated: u64,
    /// Graphs whose every ranked node failed at the connection level.
    pub delegate_errors: u64,
    /// Wall time of the client-side summary fold.
    pub merge_wall: Duration,
}

/// Maps a summary-certify response into its fold input: the outcome
/// of a certified graph, the decline reason or error text otherwise.
fn summary_result(resp: Response) -> Result<Outcome, String> {
    match resp {
        Response::CertifiedSummary { outcome, .. } => Ok(outcome),
        Response::Declined { reason, .. } => Err(reason),
        Response::Error(e) => Err(e),
        other => Err(format!("unexpected response to Certify: {other:?}")),
    }
}

/// A client for a cluster of `dpc serve` nodes: rendezvous-routes
/// each request by its content key and fails over on connection
/// errors. Connections are opened lazily per node and reused; a
/// failed connection is dropped and re-dialed on the node's next
/// turn.
///
/// The wire protocol is exactly the single-node one — a server cannot
/// tell a `ClusterClient` from a [`Client`].
pub struct ClusterClient {
    ring: Ring,
    conns: Vec<Option<Client>>,
    /// Nodes that have been dialed at least once; the connect-wait
    /// retry window only applies before this flips (boot races), so
    /// a dead node costs the window once per client, not per request.
    dialed: Vec<bool>,
    connect_wait: Option<Duration>,
    /// Copies of each certificate to keep, on the top-k ranked nodes.
    /// 1 (the default) is the original single-owner routing.
    replication: usize,
    stats: ClusterStats,
}

impl ClusterClient {
    /// A client over the given node addresses (at least one, no
    /// duplicates). No connection is opened yet.
    pub fn new<I, S>(addrs: I) -> Result<ClusterClient, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Ok(Self::over(Ring::new(addrs)?))
    }

    /// A client over an existing ring.
    pub fn over(ring: Ring) -> ClusterClient {
        let stats = ClusterStats::new(ring.addrs());
        let conns = ring.addrs().iter().map(|_| None).collect();
        let dialed = ring.addrs().iter().map(|_| false).collect();
        ClusterClient {
            ring,
            conns,
            dialed,
            connect_wait: None,
            replication: 1,
            stats,
        }
    }

    /// Keeps each certificate on the top-`k` nodes of its rendezvous
    /// ranking (clamped to `1..=ring.len()`). With `k == 1` routing
    /// is byte-identical to the unreplicated client. With `k > 1`,
    /// non-bypass certifies probe the top-k replicas with cached-only
    /// requests (a probe never triggers a prove), read-repair any
    /// higher-ranked replica that missed, and copy fresh proves to
    /// every replica — so any single node can die without losing a
    /// cached certificate.
    pub fn with_replication(mut self, k: usize) -> ClusterClient {
        self.replication = k.clamp(1, self.ring.len());
        self
    }

    /// The configured replication factor (see
    /// [`ClusterClient::with_replication`]).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Retries each node's *first* dial (in this client's lifetime)
    /// for up to `wait` — covering the boot race where servers are
    /// still binding. Every later dial of a node is a single attempt:
    /// once a node has been tried, its death costs one refused
    /// connect per request, never a timeout.
    pub fn with_connect_wait(mut self, wait: Duration) -> ClusterClient {
        self.connect_wait = Some(wait);
        self
    }

    /// The configured connect-wait, if any (see
    /// [`ClusterClient::with_connect_wait`]).
    pub fn connect_wait(&self) -> Option<Duration> {
        self.connect_wait
    }

    /// The routing ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The client-side traffic counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Routes one pre-encoded request body by `key`: tries the ranked
    /// nodes in order, excluding each node that fails at the
    /// connection level for the remainder of this request.
    pub fn route(&mut self, key: &[u8], body: &[u8]) -> Result<Response, WireError> {
        let ranked = self.ring.rank(key);
        let mut last_err: Option<WireError> = None;
        for (hop, &idx) in ranked.iter().enumerate() {
            match self.try_node(idx, body) {
                Ok(resp) => {
                    if hop > 0 {
                        self.stats.failovers += hop as u64;
                    }
                    self.stats.requests += 1;
                    self.stats.per_node[idx].routed += 1;
                    return Ok(resp);
                }
                Err(e) => {
                    self.stats.per_node[idx].failures += 1;
                    last_err = Some(e);
                }
            }
        }
        self.stats.exhausted += 1;
        Err(last_err.expect("ring is nonempty"))
    }

    /// The cached connection to a node, dialing if needed. Only the
    /// node's first-ever dial honors the connect-wait window.
    fn ensure_conn(&mut self, idx: usize) -> Result<&mut Client, WireError> {
        if self.conns[idx].is_none() {
            let addr = self.ring.addrs()[idx].as_str();
            let first_dial = !std::mem::replace(&mut self.dialed[idx], true);
            let client = match (self.connect_wait, first_dial) {
                (Some(wait), true) => Client::connect_with_retry(addr, wait),
                _ => Client::connect(addr),
            }
            .map_err(WireError::Io)?;
            self.conns[idx] = Some(client);
        }
        Ok(self.conns[idx].as_mut().expect("just connected"))
    }

    /// One attempt against one node; any error drops its cached
    /// connection.
    fn try_node(&mut self, idx: usize, body: &[u8]) -> Result<Response, WireError> {
        let client = self.ensure_conn(idx)?;
        match client.send_body(body).and_then(|()| client.recv()) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                // a broken stream poisons the pipeline ordering:
                // always re-dial this node next time
                self.conns[idx] = None;
                Err(e)
            }
        }
    }

    /// Certifies a graph on the owning node (or, with a replication
    /// factor above one, across the top-k replicas — bypass requests
    /// always take the plain single-owner path, since their whole
    /// point is a fresh prove). Takes the same [`CertifyOptions`] the
    /// direct [`Client`] takes, so call sites swap between the two
    /// without rephrasing; the one option that cannot be routed is
    /// `chunked` (a multi-frame upload has no single body to fail
    /// over), which errors rather than silently degrading.
    pub fn certify(
        &mut self,
        graph: &Graph,
        opts: impl Into<CertifyOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        if opts.chunked.is_some() {
            return Err(WireError::Protocol(
                "chunked upload is connection-oriented and cannot fail over; \
                 open a direct Client to the owning node"
                    .to_string(),
            ));
        }
        if self.replication > 1 && !(opts.bypass || opts.cached_only || opts.summary) {
            return self.certify_replicated(graph, opts.scheme);
        }
        let key = graph_key(opts.scheme, graph);
        self.route(&key, &opts.request(graph).encode())
    }

    /// The k>1 certify path: walk the top-k replicas with cached-only
    /// probes; a hit anywhere answers immediately (read-repairing the
    /// higher-ranked replicas that missed); an all-miss falls back to
    /// one full certify routed down the whole ranking, whose result
    /// is then copied to the other replicas.
    fn certify_replicated(
        &mut self,
        graph: &Graph,
        scheme: SchemeId,
    ) -> Result<Response, WireError> {
        let key = graph_key(scheme, graph);
        let ranked = self.ring.rank(&key);
        let replicas: Vec<usize> = ranked[..self.replication.min(ranked.len())].to_vec();
        let opts = CertifyOptions::new().scheme(scheme);
        let probe = opts.cached_only().request(graph).encode();
        let mut hops = 0u64;
        let mut missed: Vec<usize> = Vec::new();
        for &idx in &replicas {
            match self.try_node(idx, &probe) {
                Ok(Response::Error(e)) if e == wire::NOT_CACHED => missed.push(idx),
                Ok(resp) => {
                    self.stats.requests += 1;
                    self.stats.failovers += hops;
                    self.stats.per_node[idx].routed += 1;
                    if !missed.is_empty() {
                        if let Some(record) = response_record(scheme, graph, &resp) {
                            // backfill the better-ranked replicas off
                            // the request path: the caller already
                            // has its answer
                            self.stats.read_repairs += 1;
                            let targets: Vec<String> = missed
                                .iter()
                                .map(|&i| self.ring.addrs()[i].clone())
                                .collect();
                            read_repair(targets, record);
                        }
                    }
                    return Ok(resp);
                }
                Err(_) => {
                    hops += 1;
                    self.stats.per_node[idx].failures += 1;
                }
            }
        }
        // no replica holds it (or none was reachable): one real
        // certify, failing over down the full ranking as usual
        let resp = self.route(&key, &opts.request(graph).encode())?;
        if let Some(record) = response_record(scheme, graph, &resp) {
            // the answering node cached and stored the result itself;
            // the other replicas get an explicit copy (a push to a
            // node that already holds the key is a cheap duplicate)
            for &idx in &replicas[1..] {
                match self.push_record(idx, &record) {
                    Ok(()) => self.stats.replica_writes += 1,
                    Err(_) => self.stats.replica_errors += 1,
                }
            }
        }
        Ok(resp)
    }

    /// Pushes one record to one node over the cached connection; any
    /// error drops the connection, like every other per-node call.
    fn push_record(&mut self, idx: usize, record: &StoreRecord) -> Result<(), WireError> {
        let client = self.ensure_conn(idx)?;
        match client.store_push(std::slice::from_ref(record)) {
            Ok(_) => Ok(()),
            Err(e) => {
                self.conns[idx] = None;
                Err(e)
            }
        }
    }

    /// Certifies a batch of graphs across the whole fleet: each graph
    /// is summary-certified on its rendezvous owner, with all of one
    /// node's graphs pipelined on its connection (send the window,
    /// then read answers — bandwidth plus one round trip, not one
    /// round trip per graph). A node that dies mid-pipeline fails its
    /// unanswered graphs over down the ranking one by one, like any
    /// routed request.
    ///
    /// Results come back in input order and are folded with
    /// [`BatchSummary::fold`] — the same integer fold a single node
    /// applies to the same graphs in the same order, so the
    /// distributed summary is byte-identical to the sequential one.
    pub fn certify_distributed(
        &mut self,
        graphs: &[Graph],
        bypass_cache: bool,
        scheme: SchemeId,
    ) -> DistributedReport {
        let keys: Vec<Vec<u8>> = graphs.iter().map(|g| graph_key(scheme, g)).collect();
        let bodies: Vec<Vec<u8>> = graphs
            .iter()
            .map(|graph| {
                RequestRef::Certify {
                    bypass_cache,
                    cached_only: false,
                    summary: true,
                    graph,
                    scheme,
                }
                .encode()
            })
            .collect();
        let mut buckets: Vec<Vec<usize>> = (0..self.ring.len()).map(|_| Vec::new()).collect();
        for (i, key) in keys.iter().enumerate() {
            buckets[self.ring.owner(key)].push(i);
        }
        let mut results: Vec<Option<Result<Outcome, String>>> =
            (0..graphs.len()).map(|_| None).collect();
        // nodes_used is per sweep, not per client lifetime: diff the
        // per-node routed counters around the sweep
        let routed_before: Vec<u64> = self.stats.per_node.iter().map(|n| n.routed).collect();
        let mut delegate_errors = 0u64;
        for (node, idxs) in buckets.into_iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let unanswered = self.pipeline_summaries(node, &idxs, &bodies, &mut results);
            // the owner died mid-pipeline: its leftovers take the
            // ordinary ranked route, one round trip each
            for i in unanswered {
                match self.route(&keys[i], &bodies[i]) {
                    Ok(resp) => results[i] = Some(summary_result(resp)),
                    Err(e) => {
                        delegate_errors += 1;
                        results[i] = Some(Err(e.to_string()));
                    }
                }
            }
        }
        let nodes_used = self
            .stats
            .per_node
            .iter()
            .zip(routed_before)
            .filter(|(n, before)| n.routed > *before)
            .count();
        let results: Vec<Result<Outcome, String>> = results
            .into_iter()
            .map(|r| r.expect("every graph answered"))
            .collect();
        let merge_start = Instant::now();
        let summary = BatchSummary::fold(results.iter().map(|r| r.as_ref().ok()));
        let merge_wall = merge_start.elapsed();
        DistributedReport {
            delegated: results.iter().filter(|r| r.is_ok()).count() as u64,
            delegate_errors,
            nodes_used,
            results,
            summary,
            merge_wall,
        }
    }

    /// Pipelines pre-encoded summary-certify bodies (`idxs` into
    /// `bodies`) on one node's connection, filling `results` as
    /// answers land. Returns the indices left unanswered when the
    /// connection failed (empty on a clean run); the caller routes
    /// those individually. Window-bounded like the server's own
    /// peer delegation.
    fn pipeline_summaries(
        &mut self,
        node: usize,
        idxs: &[usize],
        bodies: &[Vec<u8>],
        results: &mut [Option<Result<Outcome, String>>],
    ) -> Vec<usize> {
        const WINDOW: usize = 64;
        if self.ensure_conn(node).is_err() {
            self.stats.per_node[node].failures += 1;
            return idxs.to_vec();
        }
        // take the connection out of its slot for the duration: the
        // stats fields stay borrowable while the pipeline runs
        let mut client = self.conns[node].take().expect("just connected");
        let mut queue: std::collections::VecDeque<usize> = idxs.iter().copied().collect();
        let mut pending: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut unanswered: Vec<usize> = Vec::new();
        let mut answered = 0u64;
        let mut dead = false;
        loop {
            while !dead && pending.len() < WINDOW {
                let Some(i) = queue.pop_front() else { break };
                match client.send_body(&bodies[i]) {
                    Ok(()) => pending.push_back(i),
                    Err(_) => {
                        dead = true;
                        unanswered.push(i);
                    }
                }
            }
            let Some(i) = pending.pop_front() else { break };
            if dead {
                unanswered.push(i);
                continue;
            }
            match client.recv() {
                Ok(resp) => {
                    answered += 1;
                    results[i] = Some(summary_result(resp));
                }
                Err(_) => {
                    dead = true;
                    unanswered.push(i);
                }
            }
        }
        unanswered.extend(queue);
        self.stats.requests += answered;
        self.stats.per_node[node].routed += answered;
        if dead {
            // a broken stream poisons the pipeline ordering: re-dial
            self.stats.per_node[node].failures += 1;
        } else {
            self.conns[node] = Some(client);
        }
        unanswered
    }

    /// Membership check on the owning node.
    pub fn check(
        &mut self,
        graph: &Graph,
        opts: impl Into<CheckOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        let key = graph_key(opts.scheme, graph);
        let req = RequestRef::Check {
            graph,
            scheme: opts.scheme,
        };
        self.route(&key, &req.encode())
    }

    /// Server-side generation, routed by the generation parameters.
    pub fn gen(
        &mut self,
        family: &str,
        n: u32,
        seed: u64,
        opts: impl Into<GenOptions>,
    ) -> Result<Graph, WireError> {
        let opts = opts.into();
        let key = gen_key(opts.scheme, family, n, seed);
        let req = RequestRef::Gen {
            family,
            n,
            seed,
            scheme: opts.scheme,
        };
        match self.route(&key, &req.encode())? {
            Response::Generated(g) => Ok(g),
            Response::Error(e) => Err(WireError::Protocol(e)),
            other => Err(WireError::Protocol(format!(
                "unexpected response to Gen: {other:?}"
            ))),
        }
    }

    /// Soundness probe on the owning node.
    pub fn soundness(
        &mut self,
        graph: &Graph,
        opts: impl Into<SoundnessOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        let key = graph_key(opts.scheme, graph);
        let req = RequestRef::SoundnessProbe {
            seed: opts.seed,
            graph,
            scheme: opts.scheme,
        };
        self.route(&key, &req.encode())
    }

    /// Runs one interactive-certification session against the graph's
    /// owning node, failing over down the ranking like any routed
    /// request. A session is two ordered frames on one connection, so
    /// failover restarts the *whole* session on the next node — safe,
    /// because a session is as idempotent as a certify (same graph,
    /// same seed, same transcript on every correct node).
    pub fn interactive(
        &mut self,
        graph: &Graph,
        opts: impl Into<InteractiveOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        let key = graph_key(opts.scheme, graph);
        let ranked = self.ring.rank(&key);
        let mut last_err: Option<WireError> = None;
        for (hop, &idx) in ranked.iter().enumerate() {
            let attempt = self
                .ensure_conn(idx)
                .and_then(|client| client.interactive(graph, opts));
            match attempt {
                Ok(resp) => {
                    if hop > 0 {
                        self.stats.failovers += hop as u64;
                    }
                    self.stats.requests += 1;
                    self.stats.per_node[idx].routed += 1;
                    return Ok(resp);
                }
                Err(e @ WireError::Io(_)) => {
                    // connection-level: drop the conn, try the next node
                    self.conns[idx] = None;
                    self.stats.per_node[idx].failures += 1;
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        self.stats.exhausted += 1;
        Err(last_err.expect("ring is nonempty"))
    }

    /// Broadcasts one on-demand audit pass to every node (`Err` for
    /// unreachable ones). Like [`ClusterClient::node_stats`], a
    /// broadcast: no routing key, no [`ClusterStats`] accounting.
    /// Every node gets the same sampling seed, so a fleet-wide report
    /// is reproducible end to end.
    pub fn node_audits(
        &mut self,
        opts: impl Into<AuditOptions>,
    ) -> Vec<(String, Result<Response, WireError>)> {
        let opts = opts.into();
        let addrs: Vec<String> = self.ring.addrs().to_vec();
        addrs
            .into_iter()
            .enumerate()
            .map(|(idx, addr)| {
                let result = self.audit_of(idx, opts);
                (addr, result)
            })
            .collect()
    }

    fn audit_of(&mut self, idx: usize, opts: AuditOptions) -> Result<Response, WireError> {
        let client = self.ensure_conn(idx)?;
        match client.audit(opts) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.conns[idx] = None;
                Err(e)
            }
        }
    }

    /// Every node's Stats snapshot (`Err` for unreachable nodes).
    /// Stats carries no routing key: it is a broadcast, not a routed
    /// request, and does not touch [`ClusterStats`].
    pub fn node_stats(&mut self) -> Vec<(String, Result<StatsSnapshot, WireError>)> {
        let addrs: Vec<String> = self.ring.addrs().to_vec();
        addrs
            .into_iter()
            .enumerate()
            .map(|(idx, addr)| {
                let result = self.stats_of(idx);
                (addr, result)
            })
            .collect()
    }

    fn stats_of(&mut self, idx: usize) -> Result<StatsSnapshot, WireError> {
        let client = self.ensure_conn(idx)?;
        match client.stats() {
            Ok(s) => Ok(s),
            Err(e) => {
                self.conns[idx] = None;
                Err(e)
            }
        }
    }

    /// Every node's slow-request log (`Err` for unreachable nodes).
    /// Like [`ClusterClient::node_stats`], a broadcast: no routing
    /// key, no [`ClusterStats`] accounting.
    pub fn node_slowlog(&mut self) -> Vec<(String, Result<Vec<SlowLogEntry>, WireError>)> {
        let addrs: Vec<String> = self.ring.addrs().to_vec();
        addrs
            .into_iter()
            .enumerate()
            .map(|(idx, addr)| {
                let result = self.slowlog_of(idx);
                (addr, result)
            })
            .collect()
    }

    fn slowlog_of(&mut self, idx: usize) -> Result<Vec<SlowLogEntry>, WireError> {
        let client = self.ensure_conn(idx)?;
        match client.slowlog() {
            Ok(entries) => Ok(entries),
            Err(e) => {
                self.conns[idx] = None;
                Err(e)
            }
        }
    }

    /// The fleet view: every reachable node's Stats v3 snapshot
    /// folded into one (counters summed, histograms added bucket-wise,
    /// per-scheme rows merged by id), plus the per-node details.
    /// Errors only when *no* node is reachable.
    #[allow(clippy::type_complexity)]
    pub fn fleet_stats(
        &mut self,
    ) -> Result<
        (
            StatsSnapshot,
            Vec<(String, Result<StatsSnapshot, WireError>)>,
        ),
        WireError,
    > {
        let per_node = self.node_stats();
        let mut fleet: Option<StatsSnapshot> = None;
        for (_, result) in &per_node {
            if let Ok(s) = result {
                match &mut fleet {
                    Some(f) => f.absorb(s),
                    None => fleet = Some(s.clone()),
                }
            }
        }
        match fleet {
            Some(f) => Ok((f, per_node)),
            None => Err(WireError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "no cluster node is reachable",
            ))),
        }
    }
}

/// Reconstructs the store record a server retains for a certify
/// response — the unit replica writes, read-repair, and anti-entropy
/// all push. The keyed bytes are rebuilt from the scheme id and the
/// canonical graph encoding (exactly what the server keys its cache
/// by), so the record is byte-identical to the one the answering node
/// wrote. `None` for responses that are never cached (errors).
pub fn response_record(scheme: SchemeId, graph: &Graph, resp: &Response) -> Option<StoreRecord> {
    let (kind, suffix) = match resp {
        Response::Certified {
            outcome,
            assignment,
            ..
        } => (
            RecordKind::Certified,
            wire::encode_certified_suffix(outcome, assignment),
        ),
        Response::Declined { reason, .. } => {
            (RecordKind::Declined, wire::encode_declined_suffix(reason))
        }
        _ => return None,
    };
    let mut keyed = Vec::new();
    put_uvarint(&mut keyed, scheme.0 as u64);
    wire::encode_graph(&mut keyed, graph);
    Some(StoreRecord {
        kind,
        keyed,
        suffix,
    })
}

/// Fire-and-forget backfill of replicas that missed a read: a
/// detached thread with its own connections, so the repair never
/// blocks the request path (and a dead target costs the caller
/// nothing — anti-entropy converges it later).
fn read_repair(targets: Vec<String>, record: StoreRecord) {
    let _ = std::thread::Builder::new()
        .name("dpc-read-repair".into())
        .spawn(move || {
            for addr in targets {
                if let Ok(mut client) = Client::connect(addr.as_str()) {
                    let _ = client.store_push(std::slice::from_ref(&record));
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};
    use dpc_graph::generators;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:4700")).collect()
    }

    #[test]
    fn ring_rejects_empty_and_duplicate_node_sets() {
        assert!(Ring::new(Vec::<String>::new()).is_err());
        assert!(Ring::new(["a:1", "b:1", "a:1"]).is_err());
        assert!(Ring::new([" ", ""]).is_err(), "blank addresses are empty");
        let ring = Ring::new(["a:1", "b:1"]).unwrap();
        assert_eq!(ring.len(), 2);
        assert!(!ring.is_empty());
    }

    #[test]
    fn ranking_is_deterministic_and_total() {
        let ring = Ring::new(addrs(5)).unwrap();
        let g = generators::grid(6, 6);
        let key = graph_key(SchemeId::PLANARITY, &g);
        let first = ring.rank(&key);
        assert_eq!(first, ring.rank(&key), "same key, same ranking");
        assert_eq!(first.len(), 5);
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a ranking is a permutation");
        assert_eq!(ring.owner(&key), first[0]);
    }

    #[test]
    fn node_order_does_not_affect_routing() {
        let fwd = Ring::new(addrs(4)).unwrap();
        let mut rev_addrs = addrs(4);
        rev_addrs.reverse();
        let rev = Ring::new(rev_addrs).unwrap();
        for seed in 0..20u64 {
            let g = generators::stacked_triangulation(16, seed);
            let key = graph_key(SchemeId::PLANARITY, &g);
            assert_eq!(
                fwd.addrs()[fwd.owner(&key)],
                rev.addrs()[rev.owner(&key)],
                "owner is an address property, not a position property"
            );
        }
    }

    #[test]
    fn scheme_id_is_part_of_the_routing_key() {
        let g = generators::grid(5, 5);
        let a = graph_key(SchemeId::PLANARITY, &g);
        let b = graph_key(SchemeId::BIPARTITE, &g);
        assert_ne!(a, b, "same graph, different schemes, different keys");
        let ring = Ring::new(addrs(8)).unwrap();
        // not necessarily different owners, but the ranking machinery
        // must at least see different keys; over 8 nodes and many
        // schemes some pair diverges
        let diverges = (0u16..9).any(|s| {
            ring.owner(&graph_key(SchemeId(s), &g)) != ring.owner(&graph_key(SchemeId(0), &g))
        });
        assert!(diverges, "scheme id never moved a key across 8 nodes");
    }

    #[test]
    fn cluster_client_fails_over_to_a_live_node() {
        let handle = serve("127.0.0.1:0", ServeConfig::default()).unwrap();
        // one dead node (port 1 refuses), one live node — requests
        // whose rank-1 is dead must land on the live one
        let dead = "127.0.0.1:1".to_string();
        let live = handle.addr().to_string();
        let ring = Ring::new([dead.clone(), live.clone()]).unwrap();
        let buckets = graphs_by_owner(&ring, 3, 16);
        let dead_idx = ring.addrs().iter().position(|a| *a == dead).unwrap();
        let mut cc = ClusterClient::over(ring.clone());
        for g in buckets.iter().flatten() {
            let resp = cc.certify(g, false).unwrap();
            assert!(matches!(resp, Response::Certified { .. }), "{resp:?}");
        }
        let stats = cc.stats().clone();
        assert_eq!(stats.requests, 6);
        assert_eq!(
            stats.failovers, 3,
            "exactly the dead-owned requests hopped: {stats:?}"
        );
        assert_eq!(stats.exhausted, 0);
        let dead_row = &stats.per_node[dead_idx];
        let live_row = &stats.per_node[1 - dead_idx];
        assert_eq!(dead_row.routed, 0);
        assert_eq!(dead_row.failures, 3);
        assert_eq!(live_row.routed, 6);
        assert_eq!(stats.nodes_used(), 1);
        // stats broadcast skips the dead node but reaches the live one
        let (fleet, per_node) = cc.fleet_stats().unwrap();
        assert_eq!(fleet.certify, 6);
        assert_eq!(per_node.len(), 2);
        assert!(per_node.iter().any(|(_, r)| r.is_err()));
        handle.shutdown();
    }

    #[test]
    fn connect_wait_applies_only_to_a_nodes_first_dial() {
        let handle = serve("127.0.0.1:0", ServeConfig::default()).unwrap();
        let dead = "127.0.0.1:1".to_string();
        let live = handle.addr().to_string();
        let ring = Ring::new([dead, live]).unwrap();
        let buckets = graphs_by_owner(&ring, 4, 16);
        let wait = Duration::from_millis(300);
        let mut cc = ClusterClient::over(ring).with_connect_wait(wait);
        assert_eq!(cc.connect_wait(), Some(wait));
        let start = std::time::Instant::now();
        for g in buckets.iter().flatten() {
            cc.certify(g, false).unwrap();
        }
        let elapsed = start.elapsed();
        // 8 requests, 4 of them ranked on the dead node: only the
        // FIRST dead dial may burn the retry window; re-dials are
        // single refused connects (the old per-request behavior
        // would stall >= 4 * wait here)
        assert!(
            elapsed < wait * 2,
            "dead node stalls once per client, not per request: {elapsed:?}"
        );
        assert_eq!(cc.stats().requests, 8);
        assert_eq!(cc.stats().failovers, 4);
        handle.shutdown();
    }

    #[test]
    fn exhausting_every_node_reports_the_error() {
        let mut cc = ClusterClient::new(["127.0.0.1:1"]).unwrap();
        let g = generators::grid(3, 3);
        assert!(cc.certify(&g, false).is_err());
        assert_eq!(cc.stats().exhausted, 1);
        assert_eq!(cc.stats().requests, 0);
        assert!(cc.fleet_stats().is_err(), "no node reachable");
    }
}
