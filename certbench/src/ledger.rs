//! The traced run's layer ledger.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! public function of each layer; nothing inside the program is
//! instrumented. Each span has a name, a start, an end, a parent and a
//! request id; spans stay in memory until the run ends.
//!
//! Per traced request there are two kinds of spans:
//!
//! * **live** spans from the load itself — `client.request` (the whole
//!   client-observed latency) with children `wire.request_encode`,
//!   `client.roundtrip` and `wire.response_decode`;
//! * **replayed** spans, children of that request's `client.roundtrip`:
//!   after the window, the server-side layer calls the request caused
//!   (decode, keyed bytes, hash, cache lookup, and on a miss the prover,
//!   the verification round, suffix encode and cache insert) are re-run
//!   in-process on the same input, one request at a time.
//!
//! Sub-steps a public call hides are re-timed by calling their own
//! public functions right after it and attributed as its children:
//! `core.prove` (`PlanarityScheme::prove`) has the five prover layers as
//! children, so its self time is certificate assembly; `runtime.run`
//! (`run_with_assignment`) has `core.verify` (every node's verifier
//! called directly) as child, so its self time is the simulator.
//!
//! Layers a request does not reach are probed once per distinct input
//! under a `ledger.probe` root outside every request: the prover
//! lifecycle of inputs the server answered from cache, and the store
//! round trip (`SegmentStore::put`, `TieredCache::lookup` on a hot-tier
//! miss, with `SegmentStore::get` and `StoreRecord::to_entry` as its
//! children). Probe spans never count toward a request's layer sum.

use crate::load::Sample;
use crate::workload::Item;
use dpc_core::harness::{run_with_assignment, Outcome};
use dpc_core::scheme::{Assignment, ProofLabelingScheme};
use dpc_core::schemes::tree_base::build_tree_certs;
use dpc_graph::canon::{hash_bytes, GraphHash};
use dpc_graph::degeneracy::{assign_edges_by_degeneracy, degeneracy_order};
use dpc_graph::traversal::bfs_spanning_tree;
use dpc_graph::Graph;
use dpc_planar::tembed::t_embedding;
use dpc_runtime::{put_uvarint, NodeCtx, Payload};
use dpc_service::cache::{CacheEntry, ProveResult};
use dpc_service::store::{CertStore, SegmentConfig, SegmentStore, TieredCache};
use dpc_service::wire::{self, Request};
use dpc_service::{CacheConfig, CertCache, SchemeId, SchemeRegistry};
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request id (connection and index), shared by a request's spans.
    pub req: u64,
    /// Layer name.
    pub name: &'static str,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Request id of a sample.
pub fn req_id(s: &Sample) -> u64 {
    (s.conn as u64) << 40 | s.index
}

/// An in-memory span recorder.
pub struct Spans {
    /// Every span, in recording order.
    pub list: Vec<Span>,
    epoch: Instant,
}

impl Spans {
    /// An empty recorder on the given epoch.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            list: Vec::new(),
            epoch,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span with known times; returns its index.
    pub fn push(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<u32>,
        start: u64,
        end: u64,
    ) -> u32 {
        self.list.push(Span {
            req,
            name,
            parent,
            start,
            end,
        });
        (self.list.len() - 1) as u32
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now();
        let value = f();
        let end = self.now();
        (value, self.push(req, name, parent, start, end))
    }

    /// Opens a span whose end is set later with [`Spans::close`].
    fn open(&mut self, req: u64, name: &'static str, parent: Option<u32>) -> u32 {
        let now = self.now();
        self.push(req, name, parent, now, now)
    }

    fn close(&mut self, span: u32) {
        let now = self.now();
        self.list[span as usize].end = now;
    }

    /// Records a sample's live client spans; returns the index of its
    /// `client.roundtrip` span.
    pub fn live(&mut self, s: &Sample) -> u32 {
        let req = req_id(s);
        let root = self.push(req, "client.request", None, s.t[0], s.t[3]);
        self.push(req, "wire.request_encode", Some(root), s.t[0], s.t[1]);
        let rt = self.push(req, "client.roundtrip", Some(root), s.t[1], s.t[2]);
        self.push(req, "wire.response_decode", Some(root), s.t[2], s.t[3]);
        rt
    }

    /// Per-span self time: duration minus the durations of its children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur();
            }
        }
        self.list
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Keyed cache bytes as the server builds them: the scheme id, then
/// the canonical wire encoding of the graph.
fn keyed_bytes(scheme: SchemeId, graph: &Graph) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_uvarint(&mut bytes, scheme.0 as u64);
    wire::encode_graph(&mut bytes, graph);
    bytes
}

fn body_for(cached: bool, entry: &CacheEntry) -> Vec<u8> {
    match entry.result {
        ProveResult::Certified { .. } => wire::certified_body_from_suffix(cached, &entry.suffix),
        ProveResult::Declined { .. } => wire::declined_body_from_suffix(cached, &entry.suffix),
    }
}

/// A replayed request's layer sum, for the reconciliation.
pub struct Reconciled {
    /// Client-observed latency, ns.
    pub latency: u64,
    /// Client encode + decode + every replayed server layer, ns.
    pub layers: u64,
}

/// The in-process replay of server-side layer calls.
pub struct Replay<'r> {
    /// The recorded spans (live and replayed).
    pub spans: Spans,
    registry: &'r SchemeRegistry,
    hot: CertCache,
    /// The server's cold tier when it has one (`mixed-small`): a miss
    /// probes it and appends to it.
    path_store: Option<Arc<SegmentStore>>,
    probe_store: Arc<SegmentStore>,
    probe_tier: TieredCache,
    probed: HashSet<u64>,
    cold_ns: HashMap<u64, u64>,
    /// Checks the replay itself made that failed (the direct verifier
    /// disagreeing with the verification round).
    pub failures: Vec<String>,
}

impl<'r> Replay<'r> {
    /// A replay whose stores live under `dir`.
    pub fn new(
        registry: &'r SchemeRegistry,
        epoch: Instant,
        dir: &Path,
        with_store: bool,
    ) -> io::Result<Replay<'r>> {
        let probe_store = Arc::new(SegmentStore::open(SegmentConfig::new(dir.join("probe")))?);
        let path_store = if with_store {
            Some(Arc::new(SegmentStore::open(SegmentConfig::new(
                dir.join("path"),
            ))?))
        } else {
            None
        };
        // a one-entry hot tier: every probe lookup misses it and goes
        // to the cold tier
        let tiny = CertCache::new(CacheConfig {
            shards: 1,
            byte_budget: 1,
        });
        let cold: Arc<dyn CertStore> = probe_store.clone();
        Ok(Replay {
            spans: Spans::new(epoch),
            registry,
            hot: CertCache::new(CacheConfig::default()),
            path_store,
            probe_store,
            probe_tier: TieredCache::with_cold(tiny, cold),
            probed: HashSet::new(),
            cold_ns: HashMap::new(),
            failures: Vec::new(),
        })
    }

    /// Replays one traced request under its `client.roundtrip` span.
    /// `cold_share` spreads the measured share of cold-tier reads over
    /// cached answers in the layer sum.
    pub fn request(&mut self, s: &Sample, rt: u32, item: &Item, cold_share: f64) -> Reconciled {
        let req = req_id(s);
        let p = Some(rt);
        let body = item.req.encode();
        let (decoded, _) = self.spans.time(req, "wire.request_decode", p, || {
            Request::decode(&body).expect("the benchmark's own request decodes")
        });
        let Request::Certify { graph, scheme, .. } = &decoded else {
            unreachable!("benchmark items are certify requests");
        };
        let (keyed, _) = self
            .spans
            .time(req, "wire.keyed", p, || keyed_bytes(*scheme, graph));
        let (key, _) = self.spans.time(req, "canon.hash", p, || hash_bytes(&keyed));
        if s.cached {
            let probed = self.probed.contains(&s.input);
            if !probed || self.hot.lookup(key, &keyed).is_none() {
                let root = self.spans.open(req, "ledger.probe", None);
                let entry = self.prove(req, root, graph, *scheme, key, keyed.clone(), false);
                if !probed {
                    self.store_probe(req, root, s.input, key, &entry);
                }
                self.spans.close(root);
            }
            let (entry, _) = self
                .spans
                .time(req, "cache.lookup", p, || self.hot.lookup(key, &keyed));
            let entry = entry.expect("probed inputs are in the replay cache");
            self.spans
                .time(req, "wire.body_from_suffix", p, || body_for(true, &entry));
        } else {
            self.spans
                .time(req, "cache.lookup", p, || self.hot.lookup(key, &keyed));
            if let Some(store) = &self.path_store {
                let store = Arc::clone(store);
                self.spans
                    .time(req, "store.get", p, || store.get(key, &keyed));
            }
            let entry = self.prove(req, rt, graph, *scheme, key, keyed.clone(), true);
            self.spans
                .time(req, "wire.body_from_suffix", p, || body_for(false, &entry));
            if !self.probed.contains(&s.input) {
                let root = self.spans.open(req, "ledger.probe", None);
                self.store_probe(req, root, s.input, key, &entry);
                self.spans.close(root);
            }
        }
        let server: u64 = self
            .spans
            .list
            .iter()
            .rev()
            .take_while(|sp| sp.req == req)
            .filter(|sp| sp.parent == Some(rt))
            .map(Span::dur)
            .sum();
        let cold = if s.cached {
            (cold_share * self.cold_ns.get(&s.input).copied().unwrap_or(0) as f64) as u64
        } else {
            0
        };
        Reconciled {
            latency: s.latency_ns(),
            layers: (s.t[1] - s.t[0]) + (s.t[3] - s.t[2]) + server + cold,
        }
    }

    /// The miss path: prove (with the prover layers re-timed as its
    /// children), the verification round (with the verifier re-timed as
    /// its child), suffix encode and cache insert — plus the cold-tier
    /// append when `persist` and the server has a store.
    #[allow(clippy::too_many_arguments)]
    fn prove(
        &mut self,
        req: u64,
        parent: u32,
        graph: &Graph,
        scheme_id: SchemeId,
        key: GraphHash,
        keyed: Vec<u8>,
        persist: bool,
    ) -> Arc<CacheEntry> {
        let p = Some(parent);
        let registry = self.registry;
        let scheme = registry
            .get(scheme_id)
            .expect("benchmark schemes are registered")
            .scheme();
        let planarity = scheme_id == SchemeId::PLANARITY;
        let name = if planarity {
            "core.prove"
        } else {
            "core.prove_other"
        };
        let (proved, prove_span) = self.spans.time(req, name, p, || scheme.prove(graph));
        if planarity && graph.node_count() > 1 {
            self.prover_layers(req, prove_span, graph);
        }
        let (result, suffix) = match proved {
            Ok(assignment) => {
                let (outcome, run_span) = self.spans.time(req, "runtime.run", p, || {
                    run_with_assignment(&scheme, graph, &assignment)
                });
                self.verify_directly(req, run_span, &scheme, graph, &assignment, &outcome);
                let (suffix, _) = self.spans.time(req, "wire.suffix_encode", p, || {
                    wire::encode_certified_suffix(&outcome, &assignment)
                });
                (
                    ProveResult::Certified {
                        assignment,
                        outcome,
                    },
                    suffix,
                )
            }
            Err(e) => {
                let reason = e.to_string();
                let (suffix, _) = self.spans.time(req, "wire.suffix_encode", p, || {
                    wire::encode_declined_suffix(&reason)
                });
                (ProveResult::Declined { reason }, suffix)
            }
        };
        let entry = Arc::new(CacheEntry::with_suffix(result, suffix, keyed));
        let (entry, _) = self
            .spans
            .time(req, "cache.insert", p, || self.hot.insert(key, entry));
        if persist {
            if let Some(store) = &self.path_store {
                let store = Arc::clone(store);
                let (put, _) = self
                    .spans
                    .time(req, "store.put", p, || store.put(&entry.record()));
                self.store_result(req, put.map(drop));
            }
        }
        entry
    }

    /// Re-times `PlanarityScheme::prove`'s five public sub-steps as
    /// children of its span. A graph LR rejects stops after LR, as the
    /// prover does.
    fn prover_layers(&mut self, req: u64, prove_span: u32, graph: &Graph) {
        let p = Some(prove_span);
        let (rot, _) = self.spans.time(req, "planar.lr", p, || {
            dpc_planar::lr::planarity(graph).into_embedding()
        });
        let Some(rot) = rot else {
            return;
        };
        let (tree, _) = self
            .spans
            .time(req, "graph.bfs", p, || bfs_spanning_tree(graph, 0));
        let (te, _) = self
            .spans
            .time(req, "planar.tembed", p, || t_embedding(graph, &rot, &tree));
        if te.is_err() {
            self.failures.push(format!(
                "request {req}: T-embedding failed on a planar graph"
            ));
        }
        self.spans
            .time(req, "core.tree_certs", p, || build_tree_certs(graph, &tree));
        self.spans.time(req, "graph.degeneracy", p, || {
            let order = degeneracy_order(graph);
            assign_edges_by_degeneracy(graph, &order)
        });
    }

    /// Calls the scheme's verifier on every node directly (contexts and
    /// inboxes built outside the timing) as a child of the round's span,
    /// and checks it agrees with the round.
    fn verify_directly(
        &mut self,
        req: u64,
        run_span: u32,
        scheme: &dyn ProofLabelingScheme,
        graph: &Graph,
        assignment: &Assignment,
        outcome: &Outcome,
    ) {
        let nodes: Vec<(NodeCtx, Vec<Payload>)> = graph
            .nodes()
            .map(|v| {
                let ctx = NodeCtx {
                    node: v,
                    id: graph.id_of(v),
                    neighbor_ids: graph.neighbors(v).map(|w| graph.id_of(w)).collect(),
                };
                let inbox = graph
                    .neighbors(v)
                    .map(|w| assignment.certs[w as usize].clone())
                    .collect();
                (ctx, inbox)
            })
            .collect();
        let (verdicts, _) = self.spans.time(req, "core.verify", Some(run_span), || {
            nodes
                .iter()
                .map(|(ctx, inbox)| scheme.verify(ctx, &assignment.certs[ctx.node as usize], inbox))
                .collect::<Vec<bool>>()
        });
        if verdicts != outcome.verdicts {
            self.failures.push(format!(
                "request {req}: direct verifier disagrees with the round"
            ));
        }
    }

    fn store_result(&mut self, req: u64, r: io::Result<()>) {
        if let Err(e) = r {
            self.failures.push(format!("request {req}: store: {e}"));
        }
    }

    /// The store round trip of one input's entry: append to a store,
    /// then a two-tier lookup that misses the hot tier and promotes the
    /// record from the cold tier, with the cold read's two public steps
    /// re-timed as its children.
    fn store_probe(&mut self, req: u64, root: u32, input: u64, key: GraphHash, entry: &CacheEntry) {
        let p = Some(root);
        let store = Arc::clone(&self.probe_store);
        let record = entry.record();
        let (put, _) = self.spans.time(req, "store.put", p, || store.put(&record));
        self.store_result(req, put.map(drop));
        let (_, cold) = self.spans.time(req, "tiered.lookup_cold", p, || {
            self.probe_tier.lookup(key, &entry.keyed)
        });
        let cold_ns = self.spans.list[cold as usize].dur();
        let (got, _) = self.spans.time(req, "store.get", Some(cold), || {
            store.get(key, &entry.keyed)
        });
        match got {
            Some(got) => {
                let (entry, _) = self
                    .spans
                    .time(req, "store.to_entry", Some(cold), || got.to_entry());
                self.store_result(req, entry.map(drop));
            }
            None => self
                .failures
                .push(format!("request {req}: stored record not found")),
        }
        self.cold_ns.insert(input, cold_ns);
        self.probed.insert(input);
    }
}
