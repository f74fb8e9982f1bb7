//! Long-running certification service for proof-labeling schemes.
//!
//! The paper's pipeline — compute a compact certificate once, verify
//! it cheaply everywhere — maps directly onto a serving architecture:
//! certificates are immutable, content-addressed artifacts. This crate
//! turns the single-shot library into that system, using only
//! `std::net` TCP and `std::thread`:
//!
//! * [`registry`] — the scheme registry: stable [`registry::SchemeId`]
//!   (u16) + name → any registered
//!   [`dpc_core::scheme::ProofLabelingScheme`], with per-scheme
//!   capabilities; planarity is id 0, the wire default;
//! * [`wire`] — the binary protocol: length-prefixed frames, varint
//!   delta-encoded graphs, byte-exact `Assignment`/`Outcome` bodies;
//!   every request and response kind declared once, as a row of a
//!   kind table, each graph-carrying kind addressing a scheme via a
//!   backward-compatible trailing extension (see `docs/WIRE.md`);
//! * [`cache`] — the sharded, content-addressed certificate cache:
//!   `(scheme id, canonical graph)` hash → `Arc`-shared prove result,
//!   lock-striped shards, LRU eviction under a byte budget;
//! * [`store`] — pluggable persistence: the [`store::CertStore`]
//!   trait, the append-only CRC-checked [`store::SegmentStore`] file
//!   tier, and [`store::TieredCache`], which runs the LRU cache as a
//!   hot tier over an optional cold tier (warm restarts, eviction
//!   demotion, write-behind);
//! * [`server`] — the two connection front ends (an epoll reactor,
//!   and blocking reader/writer threads where epoll is missing), both
//!   I/O drivers of one sans-I/O connection core, and a worker pool
//!   that drains a bounded queue, folds concurrent same-scheme Certify
//!   requests into [`dpc_core::batch::BatchRunner`] batches, and
//!   streams responses back in request order per connection;
//! * [`client`] — a blocking client with request pipelining and one
//!   options-builder call per verb ([`CertifyOptions`] and friends)
//!   instead of a method per wire shape;
//! * [`cluster`] — client-side horizontal scale: a
//!   [`cluster::ClusterClient`] rendezvous-hashes each request's
//!   content key (`uvarint(scheme id)` + canonical graph hash) across
//!   N server addresses and fails over down the ranking when a node
//!   is unreachable — the servers stay share-nothing on the request
//!   path, and with [`ClusterClient::with_replication`] each
//!   certificate is written to the key's top-k ranked nodes, reads
//!   read-repair cold replicas, and `dpc serve --peers` adds a
//!   server-side anti-entropy sweep that streams missing store
//!   records between peers;
//! * [`metrics`] — lock-free counters (global and per scheme), the
//!   power-of-two latency histograms behind the Stats endpoint
//!   (including the per-stage request-trace histograms: read/decode,
//!   queue wait, service, reorder wait, write flush), the capped
//!   slow-request log, and the hand-rolled Prometheus text
//!   exposition (`dpc serve --metrics-addr`);
//! * [`gen`] — the named graph families servable via Gen.
//!
//! # Example: query a server
//!
//! ```
//! use dpc_service::registry::SchemeId;
//! use dpc_service::wire::Response;
//! use dpc_service::{client::Client, server, CertifyOptions};
//!
//! let handle = server::serve("127.0.0.1:0", Default::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let g = dpc_graph::generators::grid(6, 6);
//! // planarity (the default scheme): first query proves ...
//! let first = client.certify(&g, CertifyOptions::new()).unwrap();
//! assert!(matches!(first, Response::Certified { cached: false, .. }));
//! // ... the repeat is a cache hit
//! let second = client.certify(&g, CertifyOptions::new()).unwrap();
//! assert!(matches!(second, Response::Certified { cached: true, .. }));
//! // the same graph under another scheme is *not* a hit: caches are
//! // isolated per scheme id
//! let bip = client
//!     .certify(&g, CertifyOptions::new().scheme(SchemeId::BIPARTITE))
//!     .unwrap();
//! assert!(matches!(bip, Response::Certified { cached: false, .. }));
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod cluster;
pub(crate) mod conn;
pub mod gen;
pub mod loadgen;
pub mod metrics;
pub(crate) mod reactor;
pub mod registry;
pub mod server;
pub mod store;
pub mod wire;

pub use cache::{CacheConfig, CertCache};
pub use client::{
    AuditOptions, CertifyOptions, CheckOptions, Client, GenOptions, InteractiveOptions,
    SoundnessOptions,
};
pub use cluster::{ClusterClient, ClusterStats, DistributedReport, Ring};
pub use metrics::{
    prometheus_text, HistogramSnapshot, SlowLogEntry, StageSnapshot, StatsSnapshot, STAGE_NAMES,
};
pub use registry::{SchemeId, SchemeRegistry};
pub use server::{serve, serve_with_registry, ServeConfig, ServerHandle};
pub use store::{CertStore, SegmentConfig, SegmentStore, TieredCache};
pub use wire::{Request, Response, WireError};
