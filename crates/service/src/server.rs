//! The long-running certification server.
//!
//! One connection core, two drivers. Everything a connection does
//! between socket bytes and the worker queue — framing, sequence
//! numbers, decoding, chunk-upload and interactive sessions, counters
//! and traces — lives in the I/O-free `conn` module, and so does
//! putting finished responses back in request order. Two front ends
//! drive it and feed one worker pool, so the protocol and the response
//! bytes are the same under both:
//!
//! * **event loop** (the default where epoll exists): the
//!   readiness-driven reactor in the `reactor` module — nonblocking
//!   sockets, many connections per thread, batched vectored writes.
//! * **threaded** (`ServeConfig::event_loop = false`, and always on
//!   targets without epoll): a blocking reader and a writer thread per
//!   connection, shown below. The parity tests use it as the reference.
//!
//! ```text
//!                 ┌────────────┐   bounded   ┌──────────────┐
//!  TCP ──accept──▶│ conn reader │──▶ queue ──▶│ worker pool  │
//!        thread   │ (ConnCore)  │  (Condvar)  │  · cache     │
//!                 └────────────┘             │  · BatchRunner│
//!                        │ core answers       └──────┬───────┘
//!                        ▼                           │ Done
//!                 ┌────────────┐                     │
//!                 │ conn writer │◀────────────────────┘
//!                 │ (Reorder)   │
//!                 └────────────┘
//! ```
//!
//! * The threaded reader feeds what it reads to its `ConnCore`, pushes
//!   each job into the shared bounded queue (blocking when full, which
//!   back-pressures the TCP socket) and sends each answer the core gave
//!   itself to the writer. The writer files every `Done` with its
//!   `Reorder` and writes whatever is next in request order.
//! * Workers drain the queue. A popped Certify request greedily
//!   collects the other Certify requests currently queued *for the
//!   same scheme* (up to `batch_max`), resolves the scheme once
//!   against the [`SchemeRegistry`], and runs the cache misses
//!   through the existing [`BatchRunner`] in one parallel batch,
//!   deduplicating identical graphs within the batch.
//! * The cache is keyed by [`dpc_graph::canon::hash_bytes`] over the
//!   scheme id followed by the canonical wire encoding (one walk of
//!   the sorted adjacency per request, no sort), with the stored
//!   bytes compared on every hit as a collision *and cross-scheme*
//!   guard; a hit memcpys the entry's pre-encoded suffix — the prover
//!   never runs twice for the same `(scheme, graph)` pair, and no
//!   scheme can see another's entries.
//! * With `--store-dir` the cache is the hot tier of a
//!   [`TieredCache`]: inserts write behind to an append-only segment
//!   store, hot evictions demote instead of vanish, cold hits promote
//!   back, the store is warm-loaded on boot (so restarts keep their
//!   hits) and fsynced on graceful shutdown.

use crate::cache::{CacheConfig, CacheEntry, CertCache, ProveResult};
use crate::cluster;
use crate::conn::{ConnCore, Done, Reorder, Step, READ_CHUNK};
use crate::gen;
use crate::metrics::{prometheus_text, Metrics, SlowLog, SlowLogEntry, StatsSnapshot, Trace};
use crate::registry::{SchemeEntry, SchemeId, SchemeRegistry};
use crate::store::{SegmentConfig, SegmentStore, StoreRecord, TieredCache};
use crate::wire::{self, CheckVerdict, Request, RequestRef, Response, SoundnessLine, WireError};
use dpc_core::adversary::soundness_report;
use dpc_core::batch::BatchRunner;
use dpc_core::harness::{certify_pls, Outcome};
use dpc_core::scheme::ProveError;
use dpc_graph::canon::hash_bytes;
use dpc_graph::minors::KuratowskiKind;
use dpc_graph::Graph;
use dpc_interactive::fingerprint;
use dpc_planar::kuratowski::extract_kuratowski;
use dpc_planar::lr::{planarity, Planarity};
use dpc_runtime::{get_uvarint, put_uvarint, NodeCtx, Payload};
use std::collections::{HashSet, VecDeque};
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server sizing. Defaults suit an interactive localhost deployment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Request-processing workers.
    pub workers: usize,
    /// Threads the [`BatchRunner`] uses to prove a batch of misses.
    pub prove_threads: usize,
    /// Bounded request-queue capacity (back-pressure threshold).
    pub queue_capacity: usize,
    /// Max Certify requests folded into one worker batch.
    pub batch_max: usize,
    /// Certificate-cache (hot tier) sizing.
    pub cache: CacheConfig,
    /// Optional persistent cold tier (`dpc serve --store-dir`): the
    /// cache warm-loads from it on boot, writes behind on insert, and
    /// fsyncs it on graceful shutdown.
    pub store: Option<SegmentConfig>,
    /// Use the epoll event-loop front end. Defaults to true where the
    /// platform supports it. False selects the blocking
    /// thread-per-connection front end, which targets without epoll
    /// always get and the tests use as the parity reference.
    pub event_loop: bool,
    /// Reactor threads when `event_loop` is set (loop 0 owns the
    /// listener and deals connections round-robin).
    pub event_loops: usize,
    /// Reap event-loop connections quiet for this long (no bytes in
    /// either direction, no response owed). Zero disables reaping.
    /// Threaded mode does not reap (its threads park in blocking
    /// reads).
    pub idle_timeout: Duration,
    /// Serve Prometheus text metrics over plain HTTP on this address
    /// (`dpc serve --metrics-addr`). `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Requests whose summed stage time crosses this threshold leave
    /// a full stage breakdown in the slow log (`dpc slowlog`). Zero
    /// disables the log.
    pub slow_ms: u64,
    /// Peer node addresses for the anti-entropy sweep (`dpc serve
    /// --peers`). Every second or so a sweep thread of its own
    /// asks each peer for its store key digests (StoreList) and
    /// streams it the records it lacks (StorePush) — so a node that
    /// restarted empty converges back to the fleet's certificate set
    /// without an offline `dpc store merge`. Empty disables the
    /// sweep; the server still *absorbs* pushes either way.
    pub peers: Vec<String>,
    /// Run the randomized store auditor (`dpc serve --audit`): every
    /// few maintenance ticks the store thread samples stored
    /// certificates, re-runs their per-node verifier predicates on a
    /// random vertex subset plus a fingerprint cross-check of the
    /// stored bytes, and quarantines records that are CRC-valid but
    /// fail re-verification — the corruption class `dpc store
    /// verify` structurally cannot catch. A quarantined key is simply
    /// re-proved on its next query.
    pub audit: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ServeConfig {
            workers: cores.max(2),
            prove_threads: cores,
            queue_capacity: 1024,
            batch_max: 32,
            cache: CacheConfig::default(),
            store: None,
            event_loop: epoll::supported(),
            event_loops: 1,
            idle_timeout: Duration::from_secs(60),
            metrics_addr: None,
            slow_ms: 1000,
            peers: Vec::new(),
            audit: false,
        }
    }
}

/// Microseconds of a duration, saturating.
pub(crate) fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Where a finished response goes: the per-connection writer thread
/// (threaded front end) or a reactor loop's completion inbox (event
/// loop). Workers are agnostic — both front ends share the queue.
#[derive(Clone)]
pub(crate) enum ReplyTo {
    /// Channel to a threaded connection's writer.
    Channel(mpsc::Sender<Done>),
    /// Completion inbox of the reactor loop owning connection `conn`.
    Reactor {
        /// Loop-local connection token.
        conn: u64,
        /// The owning loop's inbox (wakes its epoll set on send).
        inbox: Arc<crate::reactor::Inbox>,
    },
}

impl ReplyTo {
    fn send(&self, seq: u64, body: Vec<u8>, trace: Trace) {
        let done = Done::new(seq, body, Some(trace));
        match self {
            // a dead connection just drops the response, same as the
            // reactor routing a completion to a closed token
            ReplyTo::Channel(tx) => drop(tx.send(done)),
            ReplyTo::Reactor { conn, inbox } => inbox.send(*conn, done),
        }
    }
}

/// A job: one decoded request plus everything needed to answer it.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) seq: u64,
    pub(crate) reply: ReplyTo,
    pub(crate) received: Instant,
    /// When a worker dequeued the job (initialized to `received`;
    /// stamped in `worker_loop`). `received → dequeued` is the
    /// queue-wait stage, `dequeued → finish` the service stage.
    pub(crate) dequeued: Instant,
    /// The request's trace, carried to the final write.
    pub(crate) trace: Trace,
}

/// Bounded MPMC queue (Mutex + two Condvars — std has no bounded
/// channel with multiple consumers).
pub(crate) struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    closed: AtomicBool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
        }
    }

    /// Blocks while the queue is full. Returns `false` if the queue
    /// closed (server shutting down) and the job was dropped.
    fn push(&self, job: Job) -> bool {
        let mut jobs = self.jobs.lock().expect("queue poisoned");
        while jobs.len() >= self.capacity {
            if self.closed.load(Ordering::Acquire) {
                return false;
            }
            jobs = self.not_full.wait(jobs).expect("queue poisoned");
        }
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        jobs.push_back(job);
        drop(jobs);
        self.not_empty.notify_one();
        true
    }

    /// Nonblocking push for the reactor (its loop must never park on
    /// the queue). `Err` returns the job — full queue or shutdown —
    /// and the caller parks it in the connection's stalled slot.
    #[allow(clippy::result_large_err)] // Err *is* the handed-back job
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        if self.closed.load(Ordering::Acquire) {
            return Err(job);
        }
        let mut jobs = self.jobs.lock().expect("queue poisoned");
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops one job; if it is a Certify, greedily extracts up to
    /// `batch_max - 1` more Certify jobs *for the same scheme* from
    /// anywhere in the queue (other request kinds, and certifies for
    /// other schemes, keep their positions — batches are homogeneous
    /// per scheme so one registry lookup and one `BatchRunner` call
    /// serve the whole batch). Returns `None` on shutdown.
    fn pop_batch(&self, batch_max: usize) -> Option<Vec<Job>> {
        let mut jobs = self.jobs.lock().expect("queue poisoned");
        loop {
            if let Some(first) = jobs.pop_front() {
                let mut batch = vec![first];
                if let Request::Certify { scheme, .. } = batch[0].req {
                    let mut i = 0;
                    while i < jobs.len() && batch.len() < batch_max {
                        if matches!(
                            jobs[i].req,
                            Request::Certify { scheme: s, .. } if s == scheme
                        ) {
                            batch.push(jobs.remove(i).expect("index in bounds"));
                        } else {
                            i += 1;
                        }
                    }
                }
                drop(jobs);
                self.not_full.notify_all();
                return Some(batch);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            jobs = self.not_empty.wait(jobs).expect("queue poisoned");
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Jobs waiting right now (the queue-depth gauge).
    pub(crate) fn len(&self) -> usize {
        self.jobs.lock().expect("queue poisoned").len()
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) cache: TieredCache,
    /// Arc'd so reactor inboxes can count wakeups without a
    /// reference cycle through `Shared`.
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) queue: JobQueue,
    pub(crate) registry: SchemeRegistry,
    pub(crate) runner: BatchRunner,
    pub(crate) shutdown: AtomicBool,
    /// The peer connection an anti-entropy sweep is waiting on, so
    /// shutdown can cut it instead of waiting out [`PEER_IO_TIMEOUT`].
    sweep_conn: Mutex<Option<TcpStream>>,
    pub(crate) slow: SlowLog,
    /// The bound listen address as a string — this node's identity in
    /// the rendezvous ring formed by `peers ∪ {self}`, so composite
    /// certifies partition components the same way every node would.
    pub(crate) self_addr: String,
}

impl Shared {
    /// The per-scheme metrics slot of a registered id.
    fn scheme_metrics(&self, id: SchemeId) -> Option<&crate::metrics::SchemeMetrics> {
        self.registry
            .slot(id)
            .map(|slot| &self.metrics.per_scheme[slot])
    }
}

/// The error response for a syntactically valid but unregistered
/// scheme id — a normal answer on a healthy connection, never a
/// panic or a dropped stream. `count` is the number of requests this
/// response will answer (a whole certify batch shares one), so the
/// errors counter tracks error *responses* regardless of batching.
pub(crate) fn unknown_scheme(shared: &Shared, id: SchemeId, count: u64) -> Response {
    shared.metrics.errors.fetch_add(count, Ordering::Relaxed);
    Response::Error(format!(
        "unknown scheme id {id} (this server registers: {})",
        shared
            .registry
            .entries()
            .iter()
            .map(|e| format!("{} = {}", e.id, e.name))
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] or [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Threaded mode: the accept thread. Event-loop mode: reactor
    /// loop 0 (which owns the listener).
    accept: JoinHandle<()>,
    /// Event-loop mode: reactor loops 1..n.
    extra_loops: Vec<JoinHandle<()>>,
    /// Event-loop mode: every loop's inbox (to wake them at
    /// shutdown). Empty in threaded mode.
    inboxes: Vec<Arc<crate::reactor::Inbox>>,
    workers: Vec<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
    /// The anti-entropy sweep, when peers are configured.
    sweeper: Option<JoinHandle<()>>,
    /// The Prometheus exposition listener, when configured.
    metrics_thread: Option<JoinHandle<()>>,
    metrics_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus endpoint address, when configured
    /// (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A stats snapshot without going through the wire.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }

    /// The retained slow-request entries without going through the
    /// wire (newest first).
    pub fn slowlog(&self) -> Vec<SlowLogEntry> {
        self.shared.slow.snapshot()
    }

    /// The scheme registry this server routes by.
    pub fn registry(&self) -> &SchemeRegistry {
        &self.shared.registry
    }

    /// Stops accepting, drains the queue, and joins all server
    /// threads. In-flight requests get their responses, and the
    /// persistent store (if any) is fsynced — the graceful half of
    /// warm restarts (an ungraceful kill loses at most the records
    /// the OS had not yet written back).
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // a sweep blocked on a slow or hung peer fails now, and sees
        // the flag before it dials the next one
        if let Some(conn) = self
            .shared
            .sweep_conn
            .lock()
            .expect("sweep poisoned")
            .take()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        self.shared.queue.close();
        if self.inboxes.is_empty() {
            // unblock the threaded accept loop's blocking accept
            let _ = TcpStream::connect(self.addr);
        }
        // unblock reactor loops parked in epoll_wait
        for inbox in &self.inboxes {
            inbox.wake();
        }
        let _ = self.accept.join();
        for lp in self.extra_loops {
            let _ = lp.join();
        }
        for w in self.workers {
            let _ = w.join();
        }
        for t in [self.flusher, self.sweeper].into_iter().flatten() {
            let _ = t.join();
        }
        if let Some(m) = self.metrics_thread {
            let _ = m.join();
        }
        let _ = self.shared.cache.flush();
    }

    /// Blocks until the accept loop exits (i.e. forever, for a
    /// foreground `dpc serve`).
    pub fn wait(self) {
        let _ = self.accept.join();
    }
}

/// Binds `addr` and starts the accept loop and worker pool, serving
/// every scheme of [`SchemeRegistry::standard`].
pub fn serve<A: ToSocketAddrs>(addr: A, cfg: ServeConfig) -> io::Result<ServerHandle> {
    serve_with_registry(addr, cfg, SchemeRegistry::standard())
}

/// Like [`serve`], with an explicit scheme registry (`dpc serve
/// --schemes`).
pub fn serve_with_registry<A: ToSocketAddrs>(
    addr: A,
    cfg: ServeConfig,
    registry: SchemeRegistry,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    // the hot tier, optionally fronting a persistent cold tier; a
    // warm restart replays the store into the hot tier (bounded by
    // its byte budget) so the first post-restart query is already a
    // hit and the prover never re-runs for a stored graph
    let hot = CertCache::new(cfg.cache);
    let cache = match &cfg.store {
        Some(store_cfg) => {
            let store = SegmentStore::open(store_cfg.clone())?;
            TieredCache::with_cold(hot, Arc::new(store))
        }
        None => TieredCache::hot_only(hot),
    };
    cache.warm_load(cfg.cache.byte_budget);
    let shared = Arc::new(Shared {
        cache,
        metrics: Arc::new(Metrics::with_scheme_slots(registry.len())),
        queue: JobQueue::new(cfg.queue_capacity),
        registry,
        runner: BatchRunner::with_threads(cfg.prove_threads),
        slow: SlowLog::new(cfg.slow_ms.saturating_mul(1000)),
        cfg,
        shutdown: AtomicBool::new(false),
        sweep_conn: Mutex::new(None),
        self_addr: addr.to_string(),
    });
    let workers = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("dpc-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();
    // the connection front end: reactor loops where requested and
    // possible, otherwise one blocking accept thread spawning two
    // threads per connection. Workers never know which one runs.
    let mut inboxes = Vec::new();
    let mut extra_loops = Vec::new();
    let accept = if shared.cfg.event_loop && epoll::supported() {
        let (mut loops, loop_inboxes) = crate::reactor::spawn(&shared, listener)?;
        inboxes = loop_inboxes;
        let first = loops.remove(0);
        extra_loops = loops;
        first
    } else {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("dpc-accept".into())
            .spawn(move || accept_loop(listener, &shared))
            .expect("spawn accept loop")
    };
    // a foreground `dpc serve` only ever dies by signal, so graceful
    // shutdown alone cannot be the durability story: a background
    // flusher fsyncs the store every few seconds, bounding what a
    // kill -9 (or power loss right after a SIGTERM) can lose
    let flusher = (shared.cache.cold().is_some() || shared.cfg.audit).then(|| {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("dpc-store-flush".into())
            .spawn(move || {
                let mut ticks = 0u32;
                while !shared.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(250));
                    ticks += 1;
                    if ticks.is_multiple_of(20) {
                        // every ~5 s: compaction (if garbage piled
                        // up) and fsync — both deliberately off the
                        // request path; an fsync with nothing dirty
                        // is cheap
                        let _ = shared.cache.maintain();
                        let _ = shared.cache.flush();
                    }
                    if shared.cfg.audit && ticks.is_multiple_of(2) {
                        // every ~0.5 s: sample stored certificates
                        // and re-verify them; the sweep index seeds
                        // the sampler, so restarts re-cover the
                        // store from the top instead of resuming a
                        // random walk
                        let sweep = shared.metrics.audit_sweeps.load(Ordering::Relaxed);
                        audit_pass(
                            &shared,
                            AUDIT_SWEEP_SAMPLES,
                            fingerprint::derive(AUDIT_SEED_BASE, sweep),
                        );
                    }
                }
            })
            .expect("spawn store flusher")
    });
    // every ~1 s: anti-entropy — ask each peer for its key digests and
    // stream it whatever it lacks; converged peers exchange only the
    // digest list, never a record. A thread of its own, so a hung peer
    // can stall only the sweep, never the flusher's fsyncs and audits
    let sweeper = (!shared.cfg.peers.is_empty()).then(|| {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("dpc-anti-entropy".into())
            .spawn(move || {
                let mut ticks = 0u32;
                while !shared.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(250));
                    ticks += 1;
                    if ticks.is_multiple_of(4) {
                        anti_entropy_sweep(&shared);
                    }
                }
            })
            .expect("spawn anti-entropy sweeper")
    });
    // the Prometheus exposition endpoint: a plain-HTTP listener off
    // the request path, polled nonblocking so shutdown never hangs
    // on a quiet socket
    let (metrics_thread, metrics_addr) = match &shared.cfg.metrics_addr {
        Some(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let bound = listener.local_addr()?;
            let shared = Arc::clone(&shared);
            let thread = std::thread::Builder::new()
                .name("dpc-metrics".into())
                .spawn(move || metrics_loop(listener, &shared))
                .expect("spawn metrics listener");
            (Some(thread), Some(bound))
        }
        None => (None, None),
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept,
        extra_loops,
        inboxes,
        workers,
        flusher,
        sweeper,
        metrics_thread,
        metrics_addr,
    })
}

/// Accept loop of the Prometheus endpoint. Scrapes are rare and the
/// payload is small, so requests are handled inline; the listener is
/// nonblocking so the loop notices shutdown within one poll tick.
fn metrics_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let _ = listener.set_nonblocking(true);
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve_scrape(stream, shared);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Answers one HTTP request on the metrics endpoint — a hand-rolled
/// HTTP/1.1 responder (GET only, `Connection: close`), so standard
/// scrapers work without pulling in an HTTP stack.
fn serve_scrape(mut stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut req = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&chunk[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
            break;
        }
    }
    let line = req
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "only GET is supported\n".to_string(),
        )
    } else if path == "/metrics" || path == "/" {
        ("200 OK", prometheus_text(&snapshot(shared)))
    } else {
        ("404 Not Found", "try /metrics\n".to_string())
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("dpc-conn".into())
            .spawn(move || handle_connection(stream, &shared));
    }
}

/// The blocking driver of one connection: this thread reads and feeds
/// the core, a writer thread puts responses back in order and writes
/// them.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let m = &shared.metrics;
    m.conns_accepted.fetch_add(1, Ordering::Relaxed);
    m.conns_open.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    if let Ok(write_half) = stream.try_clone() {
        let (tx, rx) = mpsc::channel::<Done>();
        let writer = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("dpc-conn-writer".into())
                .spawn(move || writer_loop(write_half, rx, &shared))
                .expect("spawn connection writer")
        };
        let mut core = ConnCore::new(ReplyTo::Channel(tx.clone()));
        let mut buf = vec![0u8; READ_CHUNK];
        'read: while !core.closed() {
            let n = match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            core.feed(&buf[..n]);
            while let Some(step) = core.next(shared) {
                let handed_on = match step {
                    Step::Reply(done) => tx.send(done).is_ok(),
                    // false: the server is shutting down
                    Step::Job(job) => shared.queue.push(job),
                };
                if !handed_on {
                    break 'read;
                }
            }
        }
        core.abandon(m);
        // the writer exits once every queued job has answered and
        // dropped its sender
        drop((core, tx));
        let _ = writer.join();
    }
    m.conns_open.fetch_sub(1, Ordering::Relaxed);
}

/// Receives finished responses in completion order and writes them in
/// request order. Frames written together share one measured flush,
/// which closes each traced frame's write-flush stage.
fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<Done>, shared: &Shared) {
    let mut out = BufWriter::new(stream);
    let mut reorder = Reorder::default();
    for done in rx {
        let mut burst = Vec::new();
        for ready in reorder.push(done, &shared.metrics) {
            if out.write_all(&ready.frame).is_err() {
                return;
            }
            burst.push(ready);
        }
        let Some(start) = burst.first().map(|r| r.at) else {
            continue;
        };
        if out.flush().is_err() {
            return;
        }
        let flush = start.elapsed();
        for ready in &burst {
            ready.written(shared, flush);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(mut batch) = shared.queue.pop_batch(shared.cfg.batch_max) {
        let now = Instant::now();
        for job in &mut batch {
            let waited = now.saturating_duration_since(job.received);
            shared.metrics.stages.queue_wait.record(waited);
            job.trace.queue_wait_us = duration_us(waited);
            job.dequeued = now;
        }
        if matches!(batch[0].req, Request::Certify { .. }) {
            process_certify_batch(shared, batch);
        } else {
            for job in batch {
                let body = process_single(shared, &job.req);
                finish(shared, &job, body);
            }
        }
    }
}

/// Records one audit sweep samples (the background cadence; `dpc
/// audit` picks its own count).
const AUDIT_SWEEP_SAMPLES: u64 = 16;

/// Vertices re-verified per sampled certified record.
const AUDIT_VERIFY_NODES: u64 = 4;

/// Seed family of the background auditor (an arbitrary tag; each
/// sweep derives its sampling seed from this and its sweep index).
const AUDIT_SEED_BASE: u64 = 0xd9c5_a11d_17ab_c0de;

/// What one audit pass did (the `AuditReport` payload).
pub(crate) struct AuditOutcome {
    pub(crate) sampled: u64,
    pub(crate) failed: u64,
    pub(crate) quarantined: u64,
}

/// One randomized audit pass: deterministically samples up to
/// `samples` stored records (seeded by `seed`, without replacement)
/// and re-checks each one end to end — decode, a Freivalds-style
/// fingerprint of the stored suffix bytes against a re-encode of the
/// decoded entry, the outcome/assignment cross-checks, and the
/// per-node verifier predicate on a random vertex subset. Records
/// whose bytes are CRC-valid but fail any of these are quarantined
/// from both cache tiers (and counted); the content address makes
/// that safe — the key is simply re-proved on its next query, so
/// live traffic sees a cache miss, never a wrong answer.
pub(crate) fn audit_pass(shared: &Arc<Shared>, samples: u64, seed: u64) -> AuditOutcome {
    shared.metrics.audit_sweeps.fetch_add(1, Ordering::Relaxed);
    let mut out = AuditOutcome {
        sampled: 0,
        failed: 0,
        quarantined: 0,
    };
    // bypass-cache entries carry no keyed bytes and are not
    // addressable, so they cannot be audited (or served) anyway
    let records: Vec<StoreRecord> = shared
        .cache
        .iter_content()
        .filter_map(|r| r.ok())
        .filter(|r| !r.keyed.is_empty())
        .collect();
    if records.is_empty() {
        return out;
    }
    let mut picked: HashSet<usize> = HashSet::new();
    for i in 0..samples {
        let idx = (fingerprint::derive(seed, i) % records.len() as u64) as usize;
        if !picked.insert(idx) {
            continue; // sampling without replacement
        }
        let record = &records[idx];
        out.sampled += 1;
        // a panic on hostile bytes is itself an audit failure, not a
        // store-thread crash
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            audit_record(shared, record, seed)
        }))
        .unwrap_or(false);
        if !ok {
            out.failed += 1;
            if shared.cache.quarantine(record.key()) {
                out.quarantined += 1;
            }
        }
    }
    let m = &shared.metrics;
    m.audit_sampled.fetch_add(out.sampled, Ordering::Relaxed);
    m.audit_failed.fetch_add(out.failed, Ordering::Relaxed);
    m.audit_quarantined
        .fetch_add(out.quarantined, Ordering::Relaxed);
    out
}

/// Re-checks one stored record; `false` means quarantine it. The
/// checks are layered from cheap to expensive, and every decode
/// failure is a failure — `dpc store verify` already proved the CRC
/// holds, so a record that fails *these* checks was corrupted before
/// its checksum was (re)computed.
fn audit_record(shared: &Arc<Shared>, record: &StoreRecord, seed: u64) -> bool {
    // the content address: scheme id + canonical graph
    let mut keyed = record.keyed.as_slice();
    let Ok(scheme_raw) = get_uvarint(&mut keyed) else {
        return false;
    };
    let scheme_id = SchemeId(scheme_raw as u16);
    let Ok(graph) = wire::decode_graph(&mut keyed) else {
        return false;
    };
    if !keyed.is_empty() || scheme_raw > u16::MAX as u64 {
        return false;
    }
    let Some(entry) = shared.registry.get(scheme_id) else {
        // a record for a scheme this server does not register is not
        // auditable here; leave it for a node that registers it
        return true;
    };
    let Ok(cached) = record.to_entry() else {
        return false;
    };
    // Freivalds-style cross-check: the stored suffix bytes must
    // fingerprint identically to a re-encode of what they decoded to,
    // at a random evaluation point — any byte flip that survives
    // decoding perturbs the polynomial with probability ≈ 1 − 1/p
    let r = fingerprint::derive(seed, record.key().0 as u64);
    if fingerprint::fingerprint(&limbs(&record.suffix), r)
        != fingerprint::fingerprint(&limbs(&cached.record().suffix), r)
    {
        return false;
    }
    let ProveResult::Certified {
        assignment,
        outcome,
    } = &cached.result
    else {
        // a declined record holds only its reason string, which the
        // fingerprint above already pinned
        return true;
    };
    let n = graph.node_count();
    // outcome/assignment consistency: a flipped verdict bit or a
    // tampered size field disagrees with the certificates themselves
    if assignment.certs.len() != n
        || outcome.verdicts.len() != n
        || !outcome.all_accept()
        || outcome.max_cert_bits != assignment.max_bits()
    {
        return false;
    }
    // re-run the per-node verifier predicate on a random vertex
    // subset — exactly the check the distributed nodes ran when the
    // certificate was first issued
    for j in 0..AUDIT_VERIFY_NODES.min(n as u64) {
        let v = (fingerprint::derive(r, j) % n as u64) as u32;
        let ctx = NodeCtx {
            node: v,
            id: graph.id_of(v),
            neighbor_ids: graph.neighbors(v).map(|w| graph.id_of(w)).collect(),
        };
        let neighbors: Vec<Payload> = graph
            .neighbors(v)
            .map(|w| assignment.certs[w as usize].clone())
            .collect();
        if !entry
            .scheme()
            .verify(&ctx, &assignment.certs[v as usize], &neighbors)
        {
            return false;
        }
    }
    true
}

/// Folds bytes into the u64 limbs the fingerprint polynomial takes
/// (little-endian, zero-padded tail).
fn limbs(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|c| {
            let mut buf = [0u8; 8];
            buf[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(buf)
        })
        .collect()
}

fn finish(shared: &Shared, job: &Job, body: Vec<u8>) {
    shared.metrics.latency.record(job.received.elapsed());
    let service = job.dequeued.elapsed();
    shared.metrics.stages.service.record(service);
    let mut trace = job.trace;
    trace.service_us = duration_us(service);
    job.reply.send(job.seq, body, trace);
}

/// [`finish`], also recording the scheme's certify latency.
fn finish_certify(
    shared: &Shared,
    job: &Job,
    body: Vec<u8>,
    per_scheme: Option<&crate::metrics::SchemeMetrics>,
) {
    if let Some(m) = per_scheme {
        m.latency.record(job.received.elapsed());
    }
    finish(shared, job, body);
}

/// Proves one graph under one registered scheme (or explains why
/// not). Connectivity is checked here because the PLS model assumes a
/// connected network. A panic in the prover is contained (it would
/// otherwise kill the worker thread and wedge the response stream)
/// and surfaced as `Err` — an internal error, *not* a decline:
/// declines are semantic ("outside the class") and cacheable, a panic
/// is neither.
fn prove_one(entry: &SchemeEntry, g: &Graph) -> Result<ProveResult, String> {
    if !g.is_connected() {
        return Ok(ProveResult::Declined {
            reason: ProveError::NotConnected.to_string(),
        });
    }
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        certify_pls(&entry.scheme(), g)
    }));
    match run {
        Ok(Ok(certified)) => Ok(ProveResult::Certified {
            assignment: certified.assignment,
            outcome: certified.outcome,
        }),
        Ok(Err(e)) => Ok(ProveResult::Declined {
            reason: e.to_string(),
        }),
        Err(_) => Err("internal error: the prover panicked on this instance".to_string()),
    }
}

/// Keyed cache bytes of a certify request: the scheme id, then the
/// canonical wire encoding of the graph. Hashing (and comparing) the
/// id alongside the graph keeps every scheme's entries disjoint —
/// identical graphs certified under two schemes are two cache keys.
fn keyed_bytes(scheme: SchemeId, graph: &Graph) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_uvarint(&mut bytes, scheme.0 as u64);
    wire::encode_graph(&mut bytes, graph);
    bytes
}

/// Response bytes for a cache entry, in either the full or the
/// summary shape. A certified entry's suffix starts with the outcome,
/// so the summary body is carved from the same cached bytes without
/// re-encoding; declined entries answer identically in both shapes.
fn entry_body(cached: bool, entry: &CacheEntry, summary: bool) -> Vec<u8> {
    match &entry.result {
        ProveResult::Certified { .. } => {
            if summary {
                wire::summary_body_from_suffix(cached, &entry.suffix)
                    .unwrap_or_else(|e| Response::Error(e.to_string()).encode())
            } else {
                wire::certified_body_from_suffix(cached, &entry.suffix)
            }
        }
        ProveResult::Declined { .. } => wire::declined_body_from_suffix(cached, &entry.suffix),
    }
}

fn process_certify_batch(shared: &Arc<Shared>, batch: Vec<Job>) {
    // batches are homogeneous by construction (pop_batch groups by
    // scheme), so the registry is consulted once per batch
    let scheme_id = match batch[0].req {
        Request::Certify { scheme, .. } => scheme,
        _ => unreachable!("certify batches contain only certify jobs"),
    };
    let per_scheme = shared.scheme_metrics(scheme_id);
    if let Some(m) = per_scheme {
        m.certify.fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    let Some(entry) = shared.registry.get(scheme_id) else {
        // unknown id: every job in the batch gets a clean error
        // response; the connection (and its sequence numbers) survive
        let body = unknown_scheme(shared, scheme_id, batch.len() as u64).encode();
        for job in &batch {
            finish_certify(shared, job, body.clone(), None);
        }
        return;
    };
    if batch.len() > 1 {
        shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .batched_certifies
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    // Phase 1: cache lookups. `to_prove` maps a cache key (plus the
    // keyed scheme-id + graph bytes, the collision guard) to the jobs
    // waiting on it, deduplicating identical graphs in the batch;
    // bypass requests always prove, one prove per request.
    struct Miss<'a> {
        graph: &'a Graph,
        key: Option<(dpc_graph::canon::GraphHash, Vec<u8>)>,
        waiters: Vec<usize>,
    }
    let mut to_prove: Vec<Miss> = Vec::new();
    // disconnected summary certifies (the chunked-upload path): their
    // components are proved piecewise — possibly on peers — and the
    // outcomes merged, so they bypass both directions of the cache
    // (a plain certify would cache `Declined: not connected` under
    // the very same key, and a composite result must never shadow it)
    let mut composites: Vec<(usize, &Graph, bool)> = Vec::new();
    let mut done: Vec<Option<Vec<u8>>> = (0..batch.len()).map(|_| None).collect();
    let mut summaries: Vec<bool> = Vec::with_capacity(batch.len());
    for (i, job) in batch.iter().enumerate() {
        let Request::Certify {
            graph,
            bypass_cache,
            cached_only,
            summary,
            ..
        } = &job.req
        else {
            unreachable!("certify batches contain only certify jobs");
        };
        summaries.push(*summary);
        if *summary && !graph.is_connected() {
            composites.push((i, graph, *bypass_cache));
            continue;
        }
        if *bypass_cache {
            to_prove.push(Miss {
                graph,
                key: None,
                waiters: vec![i],
            });
            continue;
        }
        // one canonical pass: the wire encoding walks the sorted
        // adjacency, and the cache key is the hash of the
        // scheme-qualified bytes
        let bytes = keyed_bytes(scheme_id, graph);
        let key = hash_bytes(&bytes);
        match shared.cache.lookup(key, &bytes) {
            Some(entry) => {
                if let Some(m) = per_scheme {
                    m.hits.fetch_add(1, Ordering::Relaxed);
                }
                done[i] = Some(entry_body(true, &entry, *summary));
            }
            None => {
                if let Some(m) = per_scheme {
                    m.misses.fetch_add(1, Ordering::Relaxed);
                }
                if *cached_only {
                    // replica probe: the caller only wants to know
                    // whether this node already holds the answer —
                    // a miss must never trigger a prove, so it gets
                    // the sentinel error instead of joining the batch
                    done[i] = Some(Response::Error(wire::NOT_CACHED.into()).encode());
                    continue;
                }
                let dup = to_prove
                    .iter_mut()
                    .find(|m| matches!(&m.key, Some((k, b)) if *k == key && *b == bytes));
                match dup {
                    Some(m) => m.waiters.push(i),
                    None => to_prove.push(Miss {
                        graph,
                        key: Some((key, bytes)),
                        waiters: vec![i],
                    }),
                }
            }
        }
    }
    // Phase 2: prove all misses through the batch engine.
    if !to_prove.is_empty() {
        shared
            .metrics
            .proves
            .fetch_add(to_prove.len() as u64, Ordering::Relaxed);
        if let Some(m) = per_scheme {
            m.proves.fetch_add(to_prove.len() as u64, Ordering::Relaxed);
        }
        let graphs: Vec<&Graph> = to_prove.iter().map(|m| m.graph).collect();
        let results = shared.runner.map(&graphs, |g| prove_one(entry, g));
        for (miss, result) in to_prove.into_iter().zip(results) {
            match result {
                Ok(result) => {
                    let entry = match miss.key {
                        Some((key, bytes)) => shared
                            .cache
                            .insert(key, Arc::new(CacheEntry::new(result, bytes))),
                        None => Arc::new(CacheEntry::new(result, Vec::new())),
                    };
                    for i in miss.waiters {
                        done[i] = Some(entry_body(false, &entry, summaries[i]));
                    }
                }
                Err(msg) => {
                    // internal failure: answer, count, never cache
                    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let body = Response::Error(msg).encode();
                    for i in miss.waiters {
                        done[i] = Some(body.clone());
                    }
                }
            }
        }
    }
    // Phase 2b: composite (disconnected summary) certifies. These run
    // after the batch engine has drained so the scoped runner is free
    // for the local component shares, one composite at a time.
    for (i, graph, bypass) in composites {
        done[i] = Some(prove_composite(
            shared, entry, scheme_id, graph, bypass, per_scheme,
        ));
    }
    // Phase 3: respond in one pass (the per-connection writers restore
    // request order).
    for (job, body) in batch.iter().zip(done) {
        finish_certify(shared, job, body.expect("every job answered"), per_scheme);
    }
}

/// Delegated component certifies a peer may hold in flight at once.
/// Bounds the bodies buffered on either side of the wire while still
/// pipelining enough to hide the round trip.
const DELEGATE_WINDOW: usize = 64;

/// One component's answer while a composite certify is in flight.
enum CompAnswer {
    /// The component certified; its outcome joins the merge.
    Outcome(Outcome),
    /// The honest prover declined the component.
    Declined(String),
    /// Internal failure (prover panic) — surfaces as an error.
    Failed(String),
}

/// Certifies a *disconnected* summary request — the shape a chunked
/// giant-graph upload produces — by splitting it into connected
/// components, proving each on its rendezvous-ranked fleet node, and
/// merging the per-component outcomes with
/// [`Outcome::merge_components`]. The merge is the same integer fold
/// a single node applies, so the merged outcome is byte-identical to
/// a sequential prove of the whole graph.
///
/// Components routed to this node (or whose delegated frame would
/// exceed [`wire::MAX_FRAME_BYTES`]) prove locally through the shared
/// [`BatchRunner`]; the rest are pipelined as summary certifies over
/// fresh peer connections. Every delegation failure — dead peer, torn
/// connection, error response — falls back to a local prove, so the
/// answer never depends on fleet health, only its latency does.
fn prove_composite(
    shared: &Arc<Shared>,
    entry: &SchemeEntry,
    scheme_id: SchemeId,
    graph: &Graph,
    bypass_cache: bool,
    per_scheme: Option<&crate::metrics::SchemeMetrics>,
) -> Vec<u8> {
    let components = graph.components();
    let subs: Vec<Graph> = components
        .iter()
        .map(|c| graph.induced_subgraph(c))
        .collect();
    // the fleet is this node plus its peers, deduped: a single-node
    // fleet (or a peers list that only aliases this node) degenerates
    // to the all-local path
    let ring = {
        let mut fleet = shared.cfg.peers.clone();
        fleet.push(shared.self_addr.clone());
        fleet.sort_unstable();
        fleet.dedup();
        if fleet.len() >= 2 {
            cluster::Ring::new(fleet).ok()
        } else {
            None
        }
    };
    let mut answers: Vec<Option<CompAnswer>> = (0..subs.len()).map(|_| None).collect();
    let mut local: Vec<usize> = Vec::new();
    if let Some(ring) = ring {
        let self_idx = ring
            .addrs()
            .iter()
            .position(|a| *a == shared.self_addr)
            .expect("self address was pushed into the fleet");
        // partition components by owning node; each delegated body is
        // encoded once, here, and reused on the wire
        let mut assigned: Vec<Vec<(usize, Vec<u8>)>> =
            (0..ring.len()).map(|_| Vec::new()).collect();
        for (j, sub) in subs.iter().enumerate() {
            let owner = ring.owner(&cluster::graph_key(scheme_id, sub));
            if owner == self_idx {
                local.push(j);
                continue;
            }
            let body = RequestRef::Certify {
                bypass_cache,
                cached_only: false,
                summary: true,
                graph: sub,
                scheme: scheme_id,
            }
            .encode();
            if body.len() > wire::MAX_FRAME_BYTES {
                // one component too large to delegate in one frame:
                // keep it home rather than open a second chunk leg
                local.push(j);
                continue;
            }
            assigned[owner].push((j, body));
        }
        for (node, comps) in assigned.into_iter().enumerate() {
            if comps.is_empty() {
                continue;
            }
            delegate_to_peer(shared, &ring.addrs()[node], comps, &mut answers, &mut local);
        }
    } else {
        local.extend(0..subs.len());
    }
    // local share (plus every delegation fallback) through the batch
    // engine — exactly the prove a peer would have run
    if !local.is_empty() {
        local.sort_unstable();
        shared
            .metrics
            .proves
            .fetch_add(local.len() as u64, Ordering::Relaxed);
        if let Some(m) = per_scheme {
            m.proves.fetch_add(local.len() as u64, Ordering::Relaxed);
        }
        let graphs: Vec<&Graph> = local.iter().map(|&j| &subs[j]).collect();
        let results = shared.runner.map(&graphs, |g| prove_one(entry, g));
        for (&j, result) in local.iter().zip(results) {
            answers[j] = Some(match result {
                Ok(ProveResult::Certified { outcome, .. }) => CompAnswer::Outcome(outcome),
                Ok(ProveResult::Declined { reason }) => CompAnswer::Declined(reason),
                Err(msg) => CompAnswer::Failed(msg),
            });
        }
    }
    // fold in component order: the first non-certifying component
    // (lowest index) decides a decline, deterministically, no matter
    // which machine answered it
    let mut parts: Vec<(Vec<u32>, Outcome)> = Vec::with_capacity(subs.len());
    for (j, answer) in answers.into_iter().enumerate() {
        match answer.expect("every component answered") {
            CompAnswer::Outcome(outcome) => parts.push((components[j].clone(), outcome)),
            CompAnswer::Declined(reason) => {
                return Response::Declined {
                    cached: false,
                    reason,
                }
                .encode();
            }
            CompAnswer::Failed(msg) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                return Response::Error(msg).encode();
            }
        }
    }
    shared
        .metrics
        .outcome_merges
        .fetch_add(1, Ordering::Relaxed);
    let outcome = Outcome::merge_components(graph.node_count(), &parts);
    Response::CertifiedSummary {
        cached: false,
        outcome,
    }
    .encode()
}

/// Pipelines `comps` (component index, pre-encoded summary-certify
/// body) to one peer, keeping at most [`DELEGATE_WINDOW`] requests in
/// flight. Successful answers land in `answers`; every failure —
/// dial, transport, or error response — pushes the component index
/// onto `local` for the fallback prove and counts a delegation error.
fn delegate_to_peer(
    shared: &Arc<Shared>,
    addr: &str,
    comps: Vec<(usize, Vec<u8>)>,
    answers: &mut [Option<CompAnswer>],
    local: &mut Vec<usize>,
) {
    let m = &shared.metrics;
    let mut fall_back = |j: usize| {
        m.delegated_errors.fetch_add(1, Ordering::Relaxed);
        local.push(j);
    };
    let mut client = match crate::client::Client::connect(addr) {
        Ok(client) => client,
        Err(_) => {
            for (j, _) in comps {
                fall_back(j);
            }
            return;
        }
    };
    let mut queue: std::collections::VecDeque<(usize, Vec<u8>)> = comps.into();
    let mut pending: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut dead = false;
    loop {
        while !dead && pending.len() < DELEGATE_WINDOW {
            let Some((j, body)) = queue.pop_front() else {
                break;
            };
            match client.send_body(&body) {
                Ok(()) => pending.push_back(j),
                Err(_) => {
                    dead = true;
                    fall_back(j);
                }
            }
        }
        let Some(j) = pending.pop_front() else { break };
        if dead {
            fall_back(j);
            continue;
        }
        match client.recv() {
            Ok(Response::CertifiedSummary { outcome, .. }) => {
                m.delegated_proves.fetch_add(1, Ordering::Relaxed);
                answers[j] = Some(CompAnswer::Outcome(outcome));
            }
            Ok(Response::Declined { reason, .. }) => {
                m.delegated_proves.fetch_add(1, Ordering::Relaxed);
                answers[j] = Some(CompAnswer::Declined(reason));
            }
            Ok(_) => fall_back(j),
            Err(_) => {
                dead = true;
                fall_back(j);
            }
        }
    }
    // the transport died before everything was even sent
    for (j, _) in queue {
        fall_back(j);
    }
}

/// Handles one non-certify request. Panics anywhere in the handlers
/// are contained into an error response — a panicking handler must
/// never kill the worker thread or leave a sequence number
/// unanswered (the connection writer would wait on it forever).
fn process_single(shared: &Arc<Shared>, req: &Request) -> Vec<u8> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        process_single_inner(shared, req)
    }))
    .unwrap_or_else(|_| {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        Response::Error("internal error: request handler panicked".into()).encode()
    })
}

fn process_single_inner(shared: &Arc<Shared>, req: &Request) -> Vec<u8> {
    match req {
        Request::Certify { .. } => unreachable!("certify goes through the batch path"),
        Request::Check { graph, scheme } => {
            let Some(entry) = shared.registry.get(*scheme) else {
                return unknown_scheme(shared, *scheme, 1).encode();
            };
            // planarity keeps its rich embedding/witness verdicts; any
            // other scheme answers the generic membership pair (is the
            // honest prover willing to certify this instance?)
            if *scheme == SchemeId::PLANARITY {
                return check_response(graph).encode();
            }
            let verdict = match entry.scheme().prove(graph) {
                Ok(_) => CheckVerdict::Member {
                    scheme: entry.name.to_string(),
                },
                Err(e) => CheckVerdict::NonMember {
                    scheme: entry.name.to_string(),
                    reason: e.to_string(),
                },
            };
            Response::Checked(verdict).encode()
        }
        Request::Gen {
            family,
            n,
            seed,
            scheme,
        } => {
            // the scheme id routes the "default" family to the
            // scheme's canonical yes-instance generator; any concrete
            // family name stays scheme-independent, and the id is
            // deliberately NOT validated against this server's
            // registry, so a registry-restricted server still
            // generates graphs for any client
            match gen::make_scheme(family, *n, *seed, *scheme) {
                Ok(g) => Response::Generated(g).encode(),
                Err(e) => Response::Error(e).encode(),
            }
        }
        Request::SoundnessProbe {
            graph,
            seed,
            scheme,
        } => {
            let Some(entry) = shared.registry.get(*scheme) else {
                return unknown_scheme(shared, *scheme, 1).encode();
            };
            if !entry.caps.soundness_probe {
                return Response::Error(format!(
                    "scheme {} does not support soundness probes \
                     (the replay battery only applies to planarity-shaped classes)",
                    entry.name
                ))
                .encode();
            }
            if !graph.is_connected() {
                return Response::Error(ProveError::NotConnected.to_string()).encode();
            }
            let rows = soundness_report(&entry.scheme(), graph, *seed)
                .into_iter()
                .map(|row| SoundnessLine {
                    attack: row.attack.to_string(),
                    rejects: row.rejects.map(|r| r as u64),
                })
                .collect();
            Response::Soundness(rows).encode()
        }
        Request::Stats => Response::Stats(Box::new(snapshot(shared))).encode(),
        Request::SlowLog => Response::SlowLog(shared.slow.snapshot()).encode(),
        Request::StoreList => Response::StoreKeys(shared.cache.content_keys()).encode(),
        Request::StorePush { records } => {
            // absorb replicated records with the same dedup-by-key
            // semantics as an offline `dpc store merge`: a key the
            // store already holds is a no-op, everything else lands
            // in the cold tier (and warms the hot tier)
            let mut merged = 0u64;
            let mut duplicates = 0u64;
            for record in records {
                match shared.cache.absorb(record) {
                    Ok(true) => merged += 1,
                    Ok(false) => duplicates += 1,
                    Err(e) => {
                        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        return Response::Error(format!("store push failed: {e}")).encode();
                    }
                }
            }
            let m = &shared.metrics;
            m.repl_push_merged.fetch_add(merged, Ordering::Relaxed);
            m.repl_push_duplicates
                .fetch_add(duplicates, Ordering::Relaxed);
            Response::StorePushed { merged, duplicates }.encode()
        }
        Request::Audit { samples, seed } => {
            // an on-demand audit pass (`dpc audit`) — the same sweep
            // the background auditor runs, with the caller's sizing
            // and seed, so a reported verdict is reproducible
            let out = audit_pass(shared, *samples, *seed);
            Response::AuditReport {
                sampled: out.sampled,
                failed: out.failed,
                quarantined: out.quarantined,
            }
            .encode()
        }
        Request::GraphChunkBegin { .. }
        | Request::GraphChunk { .. }
        | Request::GraphChunkEnd { .. }
        | Request::InteractiveBegin { .. }
        | Request::InteractiveRespond { .. } => {
            unreachable!("the connection core answers chunk and interactive frames")
        }
    }
}

/// Bounds the anti-entropy sweep's dial to a peer.
const PEER_DIAL_TIMEOUT: Duration = Duration::from_secs(3);

/// Bounds each read and write of a sweep's exchange with a peer, so a
/// peer that accepts but never answers costs one sweep this long, then
/// counts as a replication error. A healthy peer answers StoreList only
/// after reading its whole store, and that scan sets the bound: on 2
/// cores it took 0.16 s idle over 4,096 records (51 MB), and at most
/// 2.0 s over up to 9,500 records (118 MB) while two connections sent
/// fresh 2,048- and 8,192-node proves (2.9 s with 32 queued). Shutdown
/// cuts a waiting exchange rather than wait this out.
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One round of push-based anti-entropy: for every configured peer,
/// fetch its store key digests and stream it the records this node
/// holds that the peer lacks. Dedup happens on *both* sides — the
/// digest list filters the bulk here, and the peer's `absorb` path
/// drops anything that raced in between list and push — so a repeat
/// sweep between converged peers transfers zero records.
fn anti_entropy_sweep(shared: &Arc<Shared>) {
    shared.metrics.repl_sweeps.fetch_add(1, Ordering::Relaxed);
    for peer in &shared.cfg.peers {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let swept = sweep_peer(shared, peer);
        shared.sweep_conn.lock().expect("sweep poisoned").take();
        match swept {
            Ok(pushed) => {
                if pushed > 0 {
                    shared
                        .metrics
                        .repl_pushed
                        .fetch_add(pushed, Ordering::Relaxed);
                }
            }
            Err(_) => {
                // a dead or restarting peer is the normal case this
                // sweep exists for; count it and retry next round
                shared.metrics.repl_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Exchanges store contents with one peer; returns how many records
/// the peer actually merged (its own duplicates excluded).
fn sweep_peer(shared: &Arc<Shared>, peer: &str) -> Result<u64, WireError> {
    const SWEEP_BATCH: usize = 256;
    let mut client =
        crate::client::Client::connect_timeout(peer, PEER_DIAL_TIMEOUT, PEER_IO_TIMEOUT)?;
    // published before the flag is read, so a shutdown either finds
    // this connection to cut or is seen here
    *shared.sweep_conn.lock().expect("sweep poisoned") = Some(client.try_clone_stream()?);
    if shared.shutdown.load(Ordering::Acquire) {
        return Ok(0);
    }
    let theirs: std::collections::HashSet<u128> = client.store_list()?.into_iter().collect();
    let mut merged = 0u64;
    let mut batch: Vec<crate::store::StoreRecord> = Vec::new();
    for record in shared.cache.iter_content() {
        let Ok(record) = record else { continue };
        if record.keyed.is_empty() || theirs.contains(&record.key().0) {
            continue;
        }
        batch.push(record);
        if batch.len() >= SWEEP_BATCH {
            merged += client.store_push(&batch)?.0;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        merged += client.store_push(&batch)?.0;
    }
    Ok(merged)
}

fn check_response(graph: &Graph) -> Response {
    match planarity(graph) {
        Planarity::Planar(rot) => {
            if let Err(e) = rot.euler_check() {
                return Response::Error(format!("inconsistent embedding: {e}"));
            }
            Response::Checked(CheckVerdict::Planar {
                faces: rot.face_count() as u64,
                genus: rot.genus(),
            })
        }
        Planarity::NonPlanar => match extract_kuratowski(graph) {
            Some(w) => Response::Checked(CheckVerdict::NonPlanar {
                k5: matches!(w.kind, KuratowskiKind::K5),
                branch_nodes: w.branch_nodes.clone(),
                witness_edges: w.edges.len() as u64,
            }),
            None => Response::Error("inconsistent planarity result".into()),
        },
    }
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let tiered = shared.cache.stats();
    let cache = tiered.hot;
    let store = tiered.cold.unwrap_or_default();
    let m = &shared.metrics;
    let per_scheme = shared
        .registry
        .entries()
        .iter()
        .zip(&m.per_scheme)
        .map(|(e, s)| s.snapshot(e.id.0, e.name))
        .collect();
    StatsSnapshot {
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        cache_entries: cache.entries,
        cache_bytes: cache.bytes,
        per_scheme,
        store_hits: store.hits,
        store_misses: store.misses,
        store_demotes: tiered.demotions,
        store_promotes: tiered.promotions,
        store_records: store.records,
        store_bytes: store.live_bytes,
        store_segments: store.segments,
        store_write_errors: tiered.write_errors,
        queue_depth: shared.queue.len() as u64,
        ..m.snapshot()
    }
}
