//! Blocking client for the certification service.
//!
//! One [`Client`] owns one TCP connection. The simple path is
//! [`Client::call`] (send one request, wait for its response); for
//! load generation the split [`Client::send`] / [`Client::recv`] pair
//! pipelines many requests on the wire — the server answers in
//! request order per connection, so responses come back in send
//! order.
//!
//! The request surface is one method per request family, each taking
//! an options builder (every combination the wire supports, one call
//! shape):
//!
//! ```no_run
//! # use dpc_service::{Client, CertifyOptions, SchemeId};
//! # let g = dpc_graph::generators::cycle(8);
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! client.certify(&g, CertifyOptions::new())?; // plain planarity
//! client.certify(
//!     &g,
//!     CertifyOptions::new()
//!         .scheme(SchemeId::SPANNING_TREE)
//!         .bypass()
//!         .summary(),
//! )?;
//! # Ok::<(), dpc_service::WireError>(())
//! ```

use crate::metrics::{SlowLogEntry, StatsSnapshot};
use crate::registry::SchemeId;
use crate::store::StoreRecord;
use crate::wire::{self, Request, RequestRef, Response, WireError};
use dpc_graph::Graph;
use dpc_interactive::dmam::{DmamPlanarity, DmamProtocol};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Options of [`Client::certify`]: scheme routing plus the cache,
/// shape, and transport axes that used to be separate methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifyOptions {
    pub(crate) scheme: SchemeId,
    pub(crate) bypass: bool,
    pub(crate) cached_only: bool,
    pub(crate) summary: bool,
    pub(crate) chunked: Option<usize>,
}

impl CertifyOptions {
    /// Plain planarity certify through the cache, full response.
    pub fn new() -> CertifyOptions {
        CertifyOptions {
            scheme: SchemeId::PLANARITY,
            bypass: false,
            cached_only: false,
            summary: false,
            chunked: None,
        }
    }

    /// Certify under this registered scheme instead of planarity.
    pub fn scheme(mut self, scheme: SchemeId) -> CertifyOptions {
        self.scheme = scheme;
        self
    }

    /// Skip the server cache and force a fresh prove (cold-latency
    /// measurements).
    pub fn bypass(mut self) -> CertifyOptions {
        self.bypass = true;
        self
    }

    /// Only answer from cache: a warm server answers normally, a cold
    /// one replies `Error(`[`wire::NOT_CACHED`]`)` without proving —
    /// the replica-probe shape. Overrides `bypass` and `summary` (the
    /// wire rejects the combinations).
    pub fn cached_only(mut self) -> CertifyOptions {
        self.cached_only = true;
        self
    }

    /// Ask for the measured outcome only — no certificate assignment
    /// on the wire; disconnected graphs are proved per component and
    /// merged.
    pub fn summary(mut self) -> CertifyOptions {
        self.summary = true;
        self
    }

    /// Stream the graph in CRC-checked chunks of `chunk_bytes`
    /// (clipped to [`wire::MAX_CHUNK_BYTES`]; pass
    /// [`wire::DEFAULT_CHUNK_BYTES`] unless measuring). Implies
    /// `summary` — that is the only shape the chunk protocol answers.
    pub fn chunked(mut self, chunk_bytes: usize) -> CertifyOptions {
        self.chunked = Some(chunk_bytes);
        self
    }

    /// The single-frame Certify request these options send for
    /// `graph`; `cached_only` overrides `bypass` and `summary`.
    pub(crate) fn request<'a>(&self, graph: &'a Graph) -> RequestRef<'a> {
        RequestRef::Certify {
            bypass_cache: self.bypass && !self.cached_only,
            cached_only: self.cached_only,
            summary: self.summary && !self.cached_only,
            graph,
            scheme: self.scheme,
        }
    }
}

impl Default for CertifyOptions {
    fn default() -> CertifyOptions {
        CertifyOptions::new()
    }
}

/// The pre-redesign two-argument shape: `certify(&g, bypass_cache)`.
impl From<bool> for CertifyOptions {
    fn from(bypass_cache: bool) -> CertifyOptions {
        let opts = CertifyOptions::new();
        if bypass_cache {
            opts.bypass()
        } else {
            opts
        }
    }
}

/// Options of [`Client::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckOptions {
    pub(crate) scheme: SchemeId,
}

impl CheckOptions {
    /// Planarity check with witness summary.
    pub fn new() -> CheckOptions {
        CheckOptions::default()
    }

    /// Membership check under this registered scheme instead.
    pub fn scheme(mut self, scheme: SchemeId) -> CheckOptions {
        self.scheme = scheme;
        self
    }
}

/// `check(&g, scheme_id)` reads naturally for the one-axis case.
impl From<SchemeId> for CheckOptions {
    fn from(scheme: SchemeId) -> CheckOptions {
        CheckOptions::new().scheme(scheme)
    }
}

/// Options of [`Client::gen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenOptions {
    pub(crate) scheme: SchemeId,
}

impl GenOptions {
    /// Scheme-agnostic generation (the `"default"` family maps to
    /// planarity's canonical yes-instances).
    pub fn new() -> GenOptions {
        GenOptions::default()
    }

    /// Route the `"default"` family to this scheme's canonical
    /// yes-instance generator (concrete family names ignore it).
    pub fn scheme(mut self, scheme: SchemeId) -> GenOptions {
        self.scheme = scheme;
        self
    }
}

impl From<SchemeId> for GenOptions {
    fn from(scheme: SchemeId) -> GenOptions {
        GenOptions::new().scheme(scheme)
    }
}

/// Options of [`Client::soundness`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoundnessOptions {
    pub(crate) seed: u64,
    pub(crate) scheme: SchemeId,
}

impl SoundnessOptions {
    /// Seed 0 against the planarity scheme.
    pub fn new() -> SoundnessOptions {
        SoundnessOptions::default()
    }

    /// Seed of the replay battery.
    pub fn seed(mut self, seed: u64) -> SoundnessOptions {
        self.seed = seed;
        self
    }

    /// Probe this registered scheme instead of planarity.
    pub fn scheme(mut self, scheme: SchemeId) -> SoundnessOptions {
        self.scheme = scheme;
        self
    }
}

/// The pre-redesign two-argument shape: `soundness(&g, seed)`.
impl From<u64> for SoundnessOptions {
    fn from(seed: u64) -> SoundnessOptions {
        SoundnessOptions::new().seed(seed)
    }
}

/// Options of [`Client::interactive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InteractiveOptions {
    pub(crate) seed: u64,
    pub(crate) scheme: SchemeId,
}

impl InteractiveOptions {
    /// Seed 0 under the planarity scheme (the one scheme whose
    /// registry entry runs interactive sessions).
    pub fn new() -> InteractiveOptions {
        InteractiveOptions::default()
    }

    /// Session seed: the server derives its public coin from this, so
    /// the whole transcript — challenge and verdict — replays from
    /// the seed alone.
    pub fn seed(mut self, seed: u64) -> InteractiveOptions {
        self.seed = seed;
        self
    }

    /// Open the session under this scheme id (the server declines
    /// schemes without the interactive capability before keeping any
    /// state).
    pub fn scheme(mut self, scheme: SchemeId) -> InteractiveOptions {
        self.scheme = scheme;
        self
    }
}

/// `interactive(&g, seed)` for the common one-axis case.
impl From<u64> for InteractiveOptions {
    fn from(seed: u64) -> InteractiveOptions {
        InteractiveOptions::new().seed(seed)
    }
}

/// Options of [`Client::audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOptions {
    pub(crate) samples: u64,
    pub(crate) seed: u64,
}

impl AuditOptions {
    /// 64 sampled records, seed 0.
    pub fn new() -> AuditOptions {
        AuditOptions {
            samples: 64,
            seed: 0,
        }
    }

    /// Records the sweep samples (without replacement).
    pub fn samples(mut self, samples: u64) -> AuditOptions {
        self.samples = samples;
        self
    }

    /// Sampling seed — the same seed re-audits the same records.
    pub fn seed(mut self, seed: u64) -> AuditOptions {
        self.seed = seed;
        self
    }
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions::new()
    }
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    in_flight: u64,
}

impl Client {
    /// Connects to a running `dpc serve`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            in_flight: 0,
        })
    }

    /// Connects, retrying refused/failed dials for up to `wait`
    /// (polling every 25 ms, with the final sleep clipped to the
    /// remaining budget so the deadline is honored exactly rather
    /// than overshot by up to a full poll interval). Made for racing
    /// a server that is still booting — `dpc query --wait-ms` and CI
    /// smoke steps use this instead of shell sleep loops. The last
    /// dial error is returned when the deadline passes.
    pub fn connect_with_retry<A: ToSocketAddrs + Copy>(
        addr: A,
        wait: Duration,
    ) -> io::Result<Client> {
        let deadline = Instant::now() + wait;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => match retry_sleep(Instant::now(), deadline) {
                    Some(pause) => std::thread::sleep(pause),
                    None => return Err(e),
                },
            }
        }
    }

    /// Sends a request without waiting (pipelining). Pair with
    /// [`Client::recv`].
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        self.send_body(&req.encode())
    }

    /// Sends a pre-encoded frame body without waiting: a
    /// [`RequestRef::encode`], which borrows instead of cloning, or bytes
    /// no request encodes to. Pair with [`Client::recv`].
    pub fn send_body(&mut self, body: &[u8]) -> Result<(), WireError> {
        wire::write_frame(&mut self.writer, body)?;
        self.writer.flush()?;
        self.in_flight += 1;
        Ok(())
    }

    fn call_body(&mut self, body: &[u8]) -> Result<Response, WireError> {
        self.send_body(body)?;
        self.recv()
    }

    /// Receives the next pipelined response.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        let body = wire::read_frame(&mut self.reader)?.ok_or_else(|| {
            WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Response::decode(&body)
    }

    /// One request, one response.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv()
    }

    /// Requests sent whose responses have not been received yet.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Certifies a graph (encoded straight from the borrow — no
    /// clone). Every shape the wire supports is one option away:
    /// `client.certify(&g, CertifyOptions::new().scheme(id).bypass())`.
    /// A plain `bool` still reads as the old bypass-cache flag.
    pub fn certify(
        &mut self,
        graph: &Graph,
        opts: impl Into<CertifyOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        if let Some(chunk_bytes) = opts.chunked {
            return self.certify_via_chunks(graph, opts.bypass, opts.scheme, chunk_bytes);
        }
        self.call_body(&opts.request(graph).encode())
    }

    /// The chunked certify transport (`CertifyOptions::chunked`):
    /// streams the one-pass encoding in CRC-checked chunks and
    /// returns the final summary-certify response. What the chunking
    /// bounds is the *server's* peak reassembly memory (per-chunk,
    /// not per-graph), which is the side that matters when many
    /// clients upload giant graphs at once.
    ///
    /// All frames are pipelined — Begin, every chunk, End go out
    /// before the first ack is read — so the upload costs one round
    /// trip plus bandwidth, and every ack is still verified (session
    /// id and running chunk count) before the final response is
    /// returned.
    fn certify_via_chunks(
        &mut self,
        graph: &Graph,
        bypass_cache: bool,
        scheme: SchemeId,
        chunk_bytes: usize,
    ) -> Result<Response, WireError> {
        let chunk_bytes = chunk_bytes.clamp(1, wire::MAX_CHUNK_BYTES);
        let mut payload = Vec::new();
        wire::encode_graph(&mut payload, graph);
        let session = NEXT_CHUNK_SESSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.send_body(
            &RequestRef::GraphChunkBegin {
                session,
                bypass_cache,
                scheme,
            }
            .encode(),
        )?;
        let mut chunks = 0u64;
        for piece in payload.chunks(chunk_bytes) {
            self.send_body(
                &RequestRef::GraphChunk {
                    session,
                    seq: chunks,
                    payload: piece,
                }
                .encode(),
            )?;
            chunks += 1;
        }
        self.send_body(
            &RequestRef::GraphChunkEnd {
                session,
                total_chunks: chunks,
                total_bytes: payload.len() as u64,
                crc: crate::store::crc32(&payload),
            }
            .encode(),
        )?;
        // the Begin ack plus one ack per chunk, in order
        for expect in 0..=chunks {
            match self.recv()? {
                Response::ChunkAck {
                    session: s,
                    received,
                } if s == session && received == expect => {}
                Response::Error(e) => return Err(WireError::Protocol(e)),
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected chunk ack: {other:?}"
                    )))
                }
            }
        }
        self.recv()
    }

    /// Centralized membership check (`CheckOptions` routes it to any
    /// registered scheme; planarity answers with the rich
    /// embedding/witness verdicts).
    pub fn check(
        &mut self,
        graph: &Graph,
        opts: impl Into<CheckOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        self.call_body(
            &RequestRef::Check {
                graph,
                scheme: opts.scheme,
            }
            .encode(),
        )
    }

    /// Server-side graph generation.
    pub fn gen(
        &mut self,
        family: &str,
        n: u32,
        seed: u64,
        opts: impl Into<GenOptions>,
    ) -> Result<Graph, WireError> {
        let opts = opts.into();
        match self.call_body(
            &RequestRef::Gen {
                family,
                n,
                seed,
                scheme: opts.scheme,
            }
            .encode(),
        )? {
            Response::Generated(g) => Ok(g),
            Response::Error(e) => Err(WireError::Protocol(e)),
            other => Err(WireError::Protocol(format!(
                "unexpected response to Gen: {other:?}"
            ))),
        }
    }

    /// Adversarial soundness probe (`SoundnessOptions` carries the
    /// replay seed and scheme; a plain `u64` still reads as the old
    /// seed argument).
    pub fn soundness(
        &mut self,
        graph: &Graph,
        opts: impl Into<SoundnessOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        self.call_body(
            &RequestRef::SoundnessProbe {
                seed: opts.seed,
                graph,
                scheme: opts.scheme,
            }
            .encode(),
        )
    }

    /// Runs one full interactive-certification session (wire v8) and
    /// returns the closing [`Response::Verdict`]. The client plays
    /// Merlin: it computes the dMAM commitment locally, opens the
    /// session with `InteractiveBegin` (committing to the seed the
    /// server will derive its public coin from), answers the
    /// challenge with the protocol's response round, and hands back
    /// the server's verdict — which carries the measured soundness
    /// bound for this graph.
    pub fn interactive(
        &mut self,
        graph: &Graph,
        opts: impl Into<InteractiveOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        let proto = DmamPlanarity::new();
        let commit = proto
            .commit(graph)
            .map_err(|e| WireError::Protocol(format!("cannot open an interactive session: {e}")))?;
        let session = NEXT_CHUNK_SESSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let begin = RequestRef::InteractiveBegin {
            session,
            seed: opts.seed,
            graph,
            commit: &commit,
            scheme: opts.scheme,
        };
        let challenge = match self.call_body(&begin.encode())? {
            Response::Challenge {
                session: s,
                challenge,
            } if s == session => challenge,
            Response::Error(e) => return Err(WireError::Protocol(e)),
            other => {
                return Err(WireError::Protocol(format!(
                    "unexpected response to InteractiveBegin: {other:?}"
                )))
            }
        };
        let response = proto.respond(graph, &commit, challenge);
        self.call_body(
            &RequestRef::InteractiveRespond {
                session,
                response: &response,
            }
            .encode(),
        )
    }

    /// Triggers one on-demand audit pass on the server and returns
    /// its [`Response::AuditReport`] — the same sweep the background
    /// auditor (`dpc serve --audit`) runs, with the caller's sizing
    /// and seed.
    pub fn audit(&mut self, opts: impl Into<AuditOptions>) -> Result<Response, WireError> {
        let opts = opts.into();
        self.call_body(
            &RequestRef::Audit {
                samples: opts.samples,
                seed: opts.seed,
            }
            .encode(),
        )
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        match self.call_body(&RequestRef::Stats.encode())? {
            Response::Stats(s) => Ok(*s),
            Response::Error(e) => Err(WireError::Protocol(e)),
            other => Err(WireError::Protocol(format!(
                "unexpected response to Stats: {other:?}"
            ))),
        }
    }

    /// The server's slow-request log, newest first (requests whose
    /// end-to-end latency crossed its `--slow-ms` threshold).
    pub fn slowlog(&mut self) -> Result<Vec<SlowLogEntry>, WireError> {
        match self.call_body(&RequestRef::SlowLog.encode())? {
            Response::SlowLog(entries) => Ok(entries),
            Response::Error(e) => Err(WireError::Protocol(e)),
            other => Err(WireError::Protocol(format!(
                "unexpected response to SlowLog: {other:?}"
            ))),
        }
    }

    /// The server's store content-key digests — the cheap half of an
    /// anti-entropy exchange (see [`Client::store_push`]).
    pub fn store_list(&mut self) -> Result<Vec<u128>, WireError> {
        match self.call_body(&RequestRef::StoreList.encode())? {
            Response::StoreKeys(keys) => Ok(keys),
            Response::Error(e) => Err(WireError::Protocol(e)),
            other => Err(WireError::Protocol(format!(
                "unexpected response to StoreList: {other:?}"
            ))),
        }
    }

    /// Streams certificate records into the server's store; returns
    /// `(merged, duplicates)` — records absorbed vs. keys the server
    /// already held. Replica writes, read-repair, and the anti-entropy
    /// sweep all funnel through this one request kind.
    pub fn store_push(&mut self, records: &[StoreRecord]) -> Result<(u64, u64), WireError> {
        match self.call_body(&RequestRef::StorePush { records }.encode())? {
            Response::StorePushed { merged, duplicates } => Ok((merged, duplicates)),
            Response::Error(e) => Err(WireError::Protocol(e)),
            other => Err(WireError::Protocol(format!(
                "unexpected response to StorePush: {other:?}"
            ))),
        }
    }
}

/// Process-wide chunk-session id source. Session ids only need to be
/// distinct per connection (the server tracks one session per
/// connection), but globally unique ids make interleaved-upload logs
/// unambiguous for free.
static NEXT_CHUNK_SESSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Poll interval of [`Client::connect_with_retry`].
const RETRY_POLL: Duration = Duration::from_millis(25);

/// How long the retry loop may sleep after a failed dial at `now`:
/// the 25 ms poll interval, clipped to the time left before
/// `deadline`. `None` means the deadline has passed and the loop must
/// return the dial error instead of sleeping — the caller never
/// oversleeps its `--wait-ms` budget by a partial poll.
fn retry_sleep(now: Instant, deadline: Instant) -> Option<Duration> {
    if now >= deadline {
        return None;
    }
    Some((deadline - now).min(RETRY_POLL))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_sleep_clips_to_the_remaining_budget() {
        let now = Instant::now();
        let deadline = now + Duration::from_millis(7);
        assert_eq!(retry_sleep(now, deadline), Some(Duration::from_millis(7)));
        let deadline = now + Duration::from_secs(10);
        assert_eq!(retry_sleep(now, deadline), Some(RETRY_POLL));
    }

    #[test]
    fn retry_sleep_refuses_past_deadlines() {
        let now = Instant::now();
        assert_eq!(retry_sleep(now, now), None);
        assert_eq!(retry_sleep(now + Duration::from_millis(1), now), None);
    }

    #[test]
    fn connect_with_retry_honors_sub_poll_deadlines() {
        // a port with (almost certainly) no listener: bind-and-drop
        // reserves one the OS will refuse connections to
        let addr = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap()
        };
        let wait = Duration::from_millis(40);
        let started = Instant::now();
        let err = Client::connect_with_retry(addr, wait);
        let took = started.elapsed();
        assert!(err.is_err(), "no listener, the dial must fail");
        // the pre-fix loop slept a flat 25 ms past the deadline and
        // could overshoot to ~65 ms; the clipped loop stays within
        // one dial + scheduling slop of the budget
        assert!(
            took < wait + Duration::from_millis(15),
            "overshot --wait-ms: {took:?} for a {wait:?} budget"
        );
        assert!(took >= wait, "returned before the deadline: {took:?}");
    }
}
